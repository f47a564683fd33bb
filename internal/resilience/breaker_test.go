package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(threshold int, openFor time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(threshold, openFor)
	b.now = clk.now
	return b, clk
}

func TestBreakerTripsAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		b.Failure()
		if b.State() != Closed {
			t.Fatalf("tripped after %d failures, threshold 3", i+1)
		}
	}
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatalf("state = %v, Allow = true; want open and refusing", b.State())
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("success did not reset the consecutive-failure count")
	}
}

func TestBreakerHalfOpenProbeSuccess(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted a call before the open interval elapsed")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v during probe, want half-open", b.State())
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent probe admitted while the first is in flight")
	}
	b.Success()
	if b.State() != Closed || !b.Allow() {
		t.Fatalf("probe success: state = %v, want closed and admitting", b.State())
	}
}

func TestBreakerHalfOpenProbeFailure(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not admit the half-open probe")
	}
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatalf("probe failure: state = %v, want re-opened and refusing", b.State())
	}
	// The re-open starts a fresh interval.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker did not re-probe after the second open interval")
	}
}

func TestBreakerAvailableIsSideEffectFree(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.Available() {
		t.Fatal("open breaker reported available")
	}
	clk.advance(time.Second)
	if !b.Available() {
		t.Fatal("probe-ready breaker reported unavailable")
	}
	if b.State() != Open {
		t.Fatal("Available() transitioned the breaker state")
	}
	// The probe slot is still intact for Allow.
	if !b.Allow() {
		t.Fatal("Allow refused after Available")
	}
}

func TestBreakerStuckProbeTimesOut(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("probe not admitted")
	}
	// The probe's caller dies without reporting. After another open
	// interval a fresh probe must be admitted.
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker wedged on a probe that never reported back")
	}
}

func TestGroupDoFeedsBreaker(t *testing.T) {
	g := &Group{
		Policy:     Policy{MaxAttempts: 1},
		NewBreaker: func() *Breaker { return NewBreaker(2, time.Hour) },
	}
	boom := errors.New("boom")
	fail := func(context.Context) error { return boom }

	if err := g.Do(context.Background(), "m", fail); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	if err := g.Do(context.Background(), "m", fail); !errors.Is(err, boom) {
		t.Fatalf("Do = %v, want boom", err)
	}
	// Tripped: the third call is refused without running op.
	calls := 0
	err := g.Do(context.Background(), "m", func(context.Context) error { calls++; return nil })
	if !errors.Is(err, ErrOpen) || calls != 0 {
		t.Fatalf("Do = %v with %d op calls, want ErrOpen and 0", err, calls)
	}
	if st := g.States()["m"]; st != Open {
		t.Fatalf("States()[m] = %v, want open", st)
	}
	// Other keys are independent.
	if err := g.Do(context.Background(), "other", func(context.Context) error { return nil }); err != nil {
		t.Fatalf("independent key refused: %v", err)
	}
}

func TestGroupPermanentErrorsDoNotTrip(t *testing.T) {
	g := &Group{
		Policy:     Policy{MaxAttempts: 1},
		NewBreaker: func() *Breaker { return NewBreaker(1, time.Hour) },
	}
	for i := 0; i < 5; i++ {
		err := g.Do(context.Background(), "m", func(context.Context) error {
			return Permanent(errors.New("structured 404"))
		})
		if !IsPermanent(err) {
			t.Fatalf("Do = %v, want permanent", err)
		}
	}
	if st := g.States()["m"]; st != Closed {
		t.Fatalf("permanent errors tripped the breaker: %v", st)
	}
}

func TestGroupCancellationDoesNotTrip(t *testing.T) {
	g := &Group{
		Policy:     Policy{MaxAttempts: 1},
		NewBreaker: func() *Breaker { return NewBreaker(1, time.Hour) },
	}
	ctx, cancel := context.WithCancel(context.Background())
	_ = g.Do(ctx, "m", func(context.Context) error {
		cancel()
		return context.Canceled
	})
	if st := g.States()["m"]; st != Closed {
		t.Fatalf("caller cancellation tripped the breaker: %v", st)
	}
}
