package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cnnsfi/internal/resilience"
)

// This file is the resilient RPC seam between fleet peers: every
// coordinator→member call (dispatch, poll, cancel, result/trace fetch)
// and every member→coordinator call (register, heartbeat) goes through
// one memberClient, which layers per-attempt deadlines, retries with
// exponential backoff + full jitter under a shared budget, and a
// per-peer three-state circuit breaker over a plain http.Client. The
// metrics scrape (fleet.go) and the coordinator's own copies stay
// outside it, and the engine hot path never touches any of this —
// resilience wraps RPCs only.

// fatalMemberError marks a member response that retrying cannot fix
// (spec rejected, job unknown, job failed); transport errors and
// server-side 5xx/429 stay retryable.
type fatalMemberError struct{ msg string }

func (e *fatalMemberError) Error() string { return e.msg }

// memberClient is the fleet-facing HTTP client. Control RPCs get one
// rpcTimeout per attempt; document fetches (results and traces can be
// large) get six.
type memberClient struct {
	http       *http.Client
	rpcTimeout time.Duration
	group      *resilience.Group
}

// newMemberClient assembles the client: transport (nil for the
// default; tests and the -chaos flag inject fault layers here),
// per-attempt timeout, breaker shape, and an optional retry observer.
func newMemberClient(transport http.RoundTripper, rpcTimeout time.Duration,
	breakerThreshold int, breakerOpenFor time.Duration, onRetry func(attempt int, err error)) *memberClient {
	if rpcTimeout <= 0 {
		rpcTimeout = 5 * time.Second
	}
	if breakerThreshold <= 0 {
		breakerThreshold = 5
	}
	if breakerOpenFor <= 0 {
		breakerOpenFor = 5 * time.Second
	}
	return &memberClient{
		// No client-level Timeout: each attempt carries its own context
		// deadline, so a long trace fetch and a short heartbeat stop
		// sharing one bound.
		http:       &http.Client{Transport: transport},
		rpcTimeout: rpcTimeout,
		group: &resilience.Group{
			Policy: resilience.Policy{
				MaxAttempts: 4,
				BaseDelay:   25 * time.Millisecond,
				MaxDelay:    500 * time.Millisecond,
				// The budget caps fleet-wide retry amplification during an
				// outage: ~4 extra requests per second sustained, bursting
				// to 20, shared across every peer of this client.
				Budget:  resilience.NewBudget(20, 4),
				OnRetry: onRetry,
			},
			NewBreaker: func() *resilience.Breaker {
				return resilience.NewBreaker(breakerThreshold, breakerOpenFor)
			},
		},
	}
}

// available is the read-only placement check: whether a call to base
// would be admitted by its breaker right now.
func (c *memberClient) available(base string) bool {
	return c.group.Breaker(base).Available()
}

// api performs one JSON RPC against the peer at base, decoding the
// response into out (when non-nil), with retries and breaker
// accounting. Structured non-2xx responses (other than 5xx/429) come
// back as *fatalMemberError wrapped permanent; a refusing breaker
// surfaces as resilience.ErrOpen (transient — the breaker re-probes).
func (c *memberClient) api(ctx context.Context, base, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return resilience.Permanent(err)
		}
		payload = data
	}
	return c.group.Do(ctx, base, func(ctx context.Context) error {
		actx, cancel := context.WithTimeout(ctx, c.rpcTimeout)
		defer cancel()
		return c.call(actx, method, base+path, payload, out)
	})
}

// fetchDoc downloads one member job document (result or trace)
// verbatim, under the long per-attempt deadline. Non-200 status other
// than 5xx/429 is fatal — once the member job is terminal the document
// either exists completely or not at all.
func (c *memberClient) fetchDoc(ctx context.Context, base, jobID, doc string) ([]byte, error) {
	var out []byte
	err := c.group.Do(ctx, base, func(ctx context.Context) error {
		actx, cancel := context.WithTimeout(ctx, 6*c.rpcTimeout)
		defer cancel()
		req, err := http.NewRequestWithContext(actx, http.MethodGet,
			base+"/api/v1/campaigns/"+jobID+"/"+doc, nil)
		if err != nil {
			return resilience.Permanent(err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return err // torn body: retry gets the full document
		}
		if retryableStatus(resp.StatusCode) {
			return fmt.Errorf("%s fetch: HTTP %d", doc, resp.StatusCode)
		}
		if resp.StatusCode != http.StatusOK {
			return resilience.Permanent(&fatalMemberError{msg: fmt.Sprintf("%s fetch: HTTP %d", doc, resp.StatusCode)})
		}
		out = data
		return nil
	})
	return out, err
}

// retryableStatus classifies server-side trouble a retry can outlive:
// 5xx (including a member mid-restart behind a proxy) and 429/503
// backpressure.
func retryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// call is one RPC attempt. Error classification is the resilience
// contract: transport failures, torn bodies, unparseable JSON, and
// retryable statuses return plain (retryable, breaker-counted) errors;
// everything else non-2xx is permanent.
func (c *memberClient) call(ctx context.Context, method, url string, payload []byte, out any) error {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return resilience.Permanent(err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb errorBody
		msg := fmt.Sprintf("HTTP %d", resp.StatusCode)
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = fmt.Sprintf("%s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		if retryableStatus(resp.StatusCode) {
			return fmt.Errorf("%s", msg)
		}
		return resilience.Permanent(&fatalMemberError{msg: msg})
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return err // truncated 2xx body: retry
	}
	return nil
}
