package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cnnsfi/internal/telemetry"
)

// This file is the coordinator's fleet observability: a background loop
// scrapes every registered member's /metrics endpoint, re-exports the
// interesting series under member-labelled names plus fleet roll-ups,
// and feeds the GET /api/v1/fleet view that sfictl fleet/top render.
// Scraping is strictly read-only and failure-tolerant — a member that
// cannot be scraped shows up as sfid_member_up 0 with a bumped error
// counter, never as a coordinator fault. A scrape is one plain GET per
// tick, outside the resilient RPC client: it neither retries nor counts
// against the per-member breakers that dispatch and polls go through,
// so a flapping link cannot make scrapes close the fleet to placement.

// FleetPart is one running (or just-fetched) draw window of a federated
// job, as seen in the fleet view.
type FleetPart struct {
	// Job is the coordinator's federated job ID; Part the window index.
	Job  string `json:"job"`
	Part int    `json:"part"`
	// Member is the display label of the member running the window;
	// MemberURL / MemberJob locate the member job itself. Empty while
	// the window is unassigned.
	Member    string `json:"member,omitempty"`
	MemberURL string `json:"member_url,omitempty"`
	MemberJob string `json:"member_job,omitempty"`
	// Done / Planned / Critical are the window's freshest tallies;
	// Rate its last reported throughput in injections per second.
	Done     int64   `json:"done_injections"`
	Planned  int64   `json:"planned_injections"`
	Critical int64   `json:"critical"`
	Rate     float64 `json:"rate,omitempty"`
	// Fetched marks a window whose Result is already merged-ready.
	Fetched bool `json:"fetched,omitempty"`
	// Speculative marks a window with more than one copy in flight (the
	// first copy to finish is merged); Member names the oldest.
	Speculative bool `json:"speculative,omitempty"`
}

// FleetMember is one registered member joined with its latest scrape.
type FleetMember struct {
	// Member is the registry entry (identity, URL, heartbeat times).
	Member MemberStatus `json:"member"`
	// HeartbeatAgeSeconds is the time since the member's last heartbeat.
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	// Up reports whether the latest /metrics scrape succeeded.
	Up bool `json:"up"`
	// QueueLength is the member's pending-queue length at the last
	// scrape; Rate sums its running campaigns' throughput.
	QueueLength int64   `json:"queue_length"`
	Rate        float64 `json:"rate"`
	// ScrapeErrors counts failed scrapes of this member.
	ScrapeErrors int64 `json:"scrape_errors,omitempty"`
	// Parts are the federated draw windows currently assigned to this
	// member across all running federated jobs.
	Parts []FleetPart `json:"parts,omitempty"`
}

// FleetStatus is the JSON body of GET /api/v1/fleet.
type FleetStatus struct {
	// Members lists every registered member, sorted by ID.
	Members []FleetMember `json:"members"`
	// FleetInjectionsTotal is the monotone sum of injections evaluated
	// across all members since this coordinator started scraping.
	FleetInjectionsTotal int64 `json:"fleet_injections_total"`
	// FleetRate sums the members' current campaign throughput.
	FleetRate float64 `json:"fleet_rate"`
}

// fleetState is the scrape-side bookkeeping, under its own lock so
// metric collection never contends with the scheduler.
type fleetState struct {
	// client carries the scrapes (Config.Transport, no retry layer).
	client *http.Client

	mu      sync.Mutex
	scrapes map[string]*memberScrape // keyed by member ID
	// injTotal accumulates per-(member, campaign) done-injection deltas
	// into one monotone fleet-wide counter.
	injTotal float64
}

// memberScrape is the latest scrape of one member. rates is replaced
// wholesale on every scrape (never mutated in place), so a snapshot may
// safely hold the map reference outside the lock.
type memberScrape struct {
	up         bool
	queueLen   float64
	rates      map[string]float64 // member-local campaign → inj/s
	scrapeErrs int64
	lastDone   map[string]float64 // member-local campaign → done high-water
}

func newFleetState(transport http.RoundTripper) *fleetState {
	return &fleetState{client: &http.Client{Transport: transport}, scrapes: map[string]*memberScrape{}}
}

// memberLocked returns the member's scrape record, creating it on first
// sight. Caller holds fleetState.mu.
func (f *fleetState) memberLocked(id string) *memberScrape {
	st := f.scrapes[id]
	if st == nil {
		st = &memberScrape{lastDone: map[string]float64{}}
		f.scrapes[id] = st
	}
	return st
}

// scrapeLoop polls the fleet's member /metrics endpoints until the
// service shuts down (coordinator only).
func (s *Service) scrapeLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.cfg.ScrapeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-ticker.C:
			s.scrapeFleet(s.ctx)
		}
	}
}

// scrapeFleet runs one scrape cycle over every registered member.
func (s *Service) scrapeFleet(ctx context.Context) {
	members, err := s.Members()
	if err != nil {
		return
	}
	for _, m := range members {
		s.scrapeMember(ctx, m)
	}
}

// scrapeMember polls one member's /metrics and folds the result into
// the fleet state. Members outside the heartbeat timeout are marked
// down without being polled (their daemon may be gone entirely).
func (s *Service) scrapeMember(ctx context.Context, m MemberStatus) {
	if !m.Alive {
		s.fleet.mu.Lock()
		s.fleet.memberLocked(m.ID).up = false
		s.fleet.mu.Unlock()
		return
	}
	body, err := s.scrape(ctx, m.URL)
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	st := s.fleet.memberLocked(m.ID)
	if err != nil {
		st.up = false
		st.scrapeErrs++
		return
	}
	st.up = true
	st.queueLen = 0
	rates := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		name, labels, v, ok := parseMetricLine(line)
		if !ok {
			continue
		}
		switch name {
		case "sfid_queue_length":
			st.queueLen = v
		case "sfid_campaign_rate":
			if c := labels["campaign"]; c != "" && v > 0 {
				rates[c] = v
			}
		case "sfid_campaign_done_injections":
			c := labels["campaign"]
			if c == "" {
				continue
			}
			// Per-(member, campaign) high-water delta keeps the fleet
			// counter monotone across our own restarts of the loop and a
			// member's campaign churn; a value below the high-water means
			// the member reset, so the fresh count is all new work.
			old := st.lastDone[c]
			if v >= old {
				s.fleet.injTotal += v - old
			} else {
				s.fleet.injTotal += v
			}
			st.lastDone[c] = v
		}
	}
	st.rates = rates
}

// scrape fetches the /metrics exposition of the member at base, in one
// attempt under the member RPC deadline; the next tick is the retry.
func (s *Service) scrape(ctx context.Context, base string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.MemberRPCTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.fleet.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics scrape: HTTP %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// parseMetricLine parses one Prometheus text-exposition sample into
// (name, labels, value). Comments, blanks, and malformed lines return
// ok=false — the scraper tolerates any foreign input without panicking.
func parseMetricLine(line string) (name string, labels map[string]string, value float64, ok bool) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return "", nil, 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
	if err != nil {
		return "", nil, 0, false
	}
	series := strings.TrimSpace(line[:sp])
	name = series
	br := strings.IndexByte(series, '{')
	if br < 0 {
		return name, nil, v, true
	}
	if !strings.HasSuffix(series, "}") {
		return "", nil, 0, false
	}
	name = series[:br]
	labels = map[string]string{}
	body := series[br+1 : len(series)-1]
	for len(body) > 0 {
		eq := strings.Index(body, `="`)
		if eq < 0 {
			return "", nil, 0, false
		}
		key := body[:eq]
		rest := body[eq+2:]
		var val strings.Builder
		end := -1
		for p := 0; p < len(rest); p++ {
			c := rest[p]
			if c == '\\' && p+1 < len(rest) {
				switch rest[p+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[p+1])
				}
				p++
				continue
			}
			if c == '"' {
				end = p
				break
			}
			val.WriteByte(c)
		}
		if end < 0 {
			return "", nil, 0, false
		}
		labels[key] = val.String()
		body = strings.TrimPrefix(rest[end+1:], ",")
	}
	return name, labels, v, true
}

// memberSample pairs one registry entry with a consistent copy of its
// scrape state.
type memberSample struct {
	m  MemberStatus
	sc memberScrape
}

// fleetSamples snapshots every member with its scrape state, sorted by
// member ID (the Members() order).
func (s *Service) fleetSamples() []memberSample {
	members, err := s.Members()
	if err != nil {
		return nil
	}
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	out := make([]memberSample, 0, len(members))
	for _, m := range members {
		var sc memberScrape
		if st := s.fleet.scrapes[m.ID]; st != nil {
			sc = *st
		}
		out = append(out, memberSample{m: m, sc: sc})
	}
	return out
}

// rateSum sums one member's running-campaign rates.
func (sc *memberScrape) rateSum() float64 {
	var sum float64
	for _, r := range sc.rates {
		sum += r
	}
	return sum
}

// Fleet assembles the live fleet view: every member with heartbeat age,
// scrape health, queue length, throughput, and the federated draw
// windows currently assigned to it.
func (s *Service) Fleet() (FleetStatus, error) {
	if !s.cfg.Coordinator {
		return FleetStatus{}, ErrNotCoordinator
	}
	samples := s.fleetSamples()
	s.mu.Lock()
	partsByURL := map[string][]FleetPart{}
	for _, j := range s.order {
		if j.state != StateRunning || !j.spec.Federated {
			continue
		}
		for _, p := range j.fedParts {
			if p.MemberURL != "" && !p.Fetched {
				partsByURL[p.MemberURL] = append(partsByURL[p.MemberURL], p)
			}
		}
	}
	s.mu.Unlock()
	s.fleet.mu.Lock()
	injTotal := int64(s.fleet.injTotal)
	s.fleet.mu.Unlock()

	fs := FleetStatus{Members: make([]FleetMember, 0, len(samples)), FleetInjectionsTotal: injTotal}
	for _, smp := range samples {
		rate := smp.sc.rateSum()
		fs.FleetRate += rate
		fs.Members = append(fs.Members, FleetMember{
			Member:              smp.m,
			HeartbeatAgeSeconds: time.Since(smp.m.LastSeen).Seconds(),
			Up:                  smp.sc.up,
			QueueLength:         int64(smp.sc.queueLen),
			Rate:                rate,
			ScrapeErrors:        smp.sc.scrapeErrs,
			Parts:               partsByURL[smp.m.URL],
		})
	}
	return fs, nil
}

// registerFleetMetrics publishes the member-labelled scrape families
// and the fleet roll-ups (coordinator only). Series come and go with
// the registry, so every family is a dynamic-label vec.
func (s *Service) registerFleetMetrics() {
	memberLabels := func(smp memberSample) []telemetry.Label {
		return []telemetry.Label{
			{Name: "member", Value: smp.m.ID},
			{Name: "name", Value: smp.m.Name},
		}
	}
	s.reg.GaugeVecFunc("sfid_member_up", "1 when the member's latest /metrics scrape succeeded (coordinator only).",
		func() []telemetry.LabeledValue {
			var out []telemetry.LabeledValue
			for _, smp := range s.fleetSamples() {
				v := 0.0
				if smp.sc.up {
					v = 1
				}
				out = append(out, telemetry.LabeledValue{Labels: memberLabels(smp), Value: v})
			}
			return out
		})
	s.reg.GaugeVecFunc("sfid_member_heartbeat_age_seconds", "Seconds since the member's last heartbeat.",
		func() []telemetry.LabeledValue {
			var out []telemetry.LabeledValue
			for _, smp := range s.fleetSamples() {
				out = append(out, telemetry.LabeledValue{Labels: memberLabels(smp),
					Value: time.Since(smp.m.LastSeen).Seconds()})
			}
			return out
		})
	s.reg.GaugeVecFunc("sfid_member_queue_length", "The member's pending-queue length at the last scrape.",
		func() []telemetry.LabeledValue {
			var out []telemetry.LabeledValue
			for _, smp := range s.fleetSamples() {
				out = append(out, telemetry.LabeledValue{Labels: memberLabels(smp), Value: smp.sc.queueLen})
			}
			return out
		})
	s.reg.GaugeVecFunc("sfid_member_campaign_rate", "Per member-campaign throughput in injections per second, as scraped.",
		func() []telemetry.LabeledValue {
			var out []telemetry.LabeledValue
			for _, smp := range s.fleetSamples() {
				jobs := make([]string, 0, len(smp.sc.rates))
				for job := range smp.sc.rates {
					jobs = append(jobs, job)
				}
				sort.Strings(jobs)
				for _, job := range jobs {
					out = append(out, telemetry.LabeledValue{
						Labels: []telemetry.Label{{Name: "member", Value: smp.m.ID}, {Name: "job", Value: job}},
						Value:  smp.sc.rates[job],
					})
				}
			}
			return out
		})
	s.reg.CounterVecFunc("sfid_member_scrape_errors_total", "Failed /metrics scrapes per member.",
		func() []telemetry.LabeledValue {
			var out []telemetry.LabeledValue
			for _, smp := range s.fleetSamples() {
				out = append(out, telemetry.LabeledValue{
					Labels: []telemetry.Label{{Name: "member", Value: smp.m.ID}},
					Value:  float64(smp.sc.scrapeErrs),
				})
			}
			return out
		})
	s.reg.CounterFunc("sfid_fleet_injections_total", "Injections evaluated across all members since this coordinator started scraping.",
		func() int64 {
			s.fleet.mu.Lock()
			defer s.fleet.mu.Unlock()
			return int64(s.fleet.injTotal)
		})
	s.reg.GaugeFunc("sfid_fleet_rate", "Summed member campaign throughput in injections per second.",
		func() float64 {
			var sum float64
			for _, smp := range s.fleetSamples() {
				sum += smp.sc.rateSum()
			}
			return sum
		})
	s.reg.GaugeVecFunc("sfid_member_breaker_state", "Per-member circuit breaker state: 0 closed, 1 half-open, 2 open.",
		func() []telemetry.LabeledValue {
			states := s.fed.group.States()
			urls := make([]string, 0, len(states))
			for url := range states {
				urls = append(urls, url)
			}
			sort.Strings(urls)
			out := make([]telemetry.LabeledValue, 0, len(urls))
			for _, url := range urls {
				out = append(out, telemetry.LabeledValue{
					Labels: []telemetry.Label{{Name: "member", Value: url}},
					Value:  float64(states[url]),
				})
			}
			return out
		})
}
