package service

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestParseMetricLine pins the scraper's tolerance: well-formed samples
// parse exactly, everything else — comments, blanks, junk, truncated
// label blocks — is rejected with ok=false, never a panic.
func TestParseMetricLine(t *testing.T) {
	cases := []struct {
		line   string
		name   string
		labels map[string]string
		value  float64
		ok     bool
	}{
		{line: "sfid_queue_length 3", name: "sfid_queue_length", value: 3, ok: true},
		{line: "  sfid_workers_free 8  ", name: "sfid_workers_free", value: 8, ok: true},
		{line: "sfid_fleet_rate 123.5", name: "sfid_fleet_rate", value: 123.5, ok: true},
		{line: `sfid_campaign_rate{campaign="j000001"} 250`, name: "sfid_campaign_rate",
			labels: map[string]string{"campaign": "j000001"}, value: 250, ok: true},
		{line: `m{a="x",b="y"} 1`, name: "m", labels: map[string]string{"a": "x", "b": "y"}, value: 1, ok: true},
		{line: `m{a="with \"quotes\" and \\ and \n"} 2`, name: "m",
			labels: map[string]string{"a": "with \"quotes\" and \\ and \n"}, value: 2, ok: true},
		{line: `m{empty=""} 0`, name: "m", labels: map[string]string{"empty": ""}, value: 0, ok: true},
		{line: "", ok: false},
		{line: "   ", ok: false},
		{line: "# HELP sfid_queue_length pending campaigns", ok: false},
		{line: "# TYPE sfid_queue_length gauge", ok: false},
		{line: "just_a_name", ok: false},
		{line: "name not_a_number", ok: false},
		{line: `m{a="unterminated 1`, ok: false},
		{line: `m{a=unquoted} 1`, ok: false},
		{line: `m{a="x" 1`, ok: false},
	}
	for _, tc := range cases {
		name, labels, v, ok := parseMetricLine(tc.line)
		if ok != tc.ok {
			t.Errorf("parseMetricLine(%q) ok = %v, want %v", tc.line, ok, tc.ok)
			continue
		}
		if !ok {
			continue
		}
		if name != tc.name || v != tc.value || !reflect.DeepEqual(labels, tc.labels) {
			t.Errorf("parseMetricLine(%q) = (%q, %v, %v), want (%q, %v, %v)",
				tc.line, name, labels, v, tc.name, tc.labels, tc.value)
		}
	}
}

// TestScrapeMemberHighWater drives scrapeMember against a scripted
// member endpoint and pins the fold: queue and rates track the latest
// scrape, the fleet injections counter accumulates per-campaign
// high-water deltas (a tally below the high-water means the member
// restarted, so the fresh count is all new work), and a scrape failure
// marks the member down with a bumped error counter — the coordinator
// itself never errors.
func TestScrapeMemberHighWater(t *testing.T) {
	var body atomic.Value
	body.Store("")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body.Load().(string))
	}))
	defer srv.Close()

	// A quiet scrape loop (hour-long interval) so only the explicit
	// scrapeMember calls below touch the fleet state.
	s, err := New(Config{Dir: t.TempDir(), Coordinator: true,
		MemberTimeout: time.Hour, ScrapeInterval: time.Hour, BreakerThreshold: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	}()
	m, err := s.RegisterMember(srv.URL, "node-a")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	snap := func() memberScrape {
		s.fleet.mu.Lock()
		defer s.fleet.mu.Unlock()
		return *s.fleet.memberLocked(m.ID)
	}
	total := func() float64 {
		s.fleet.mu.Lock()
		defer s.fleet.mu.Unlock()
		return s.fleet.injTotal
	}

	body.Store("# HELP sfid_queue_length pending\n" +
		"sfid_queue_length 2\n" +
		`sfid_campaign_rate{campaign="j000001"} 100` + "\n" +
		`sfid_campaign_done_injections{campaign="j000001"} 150` + "\n")
	s.scrapeMember(ctx, m)
	st := snap()
	if !st.up || st.queueLen != 2 || st.rates["j000001"] != 100 {
		t.Errorf("first scrape = %+v, want up with queue 2 and rate 100", st)
	}
	if got := total(); got != 150 {
		t.Errorf("injTotal after first scrape = %v, want 150", got)
	}

	// Progress: only the delta lands.
	body.Store(`sfid_campaign_done_injections{campaign="j000001"} 400` + "\n")
	s.scrapeMember(ctx, m)
	if got := total(); got != 400 {
		t.Errorf("injTotal after progress = %v, want 400", got)
	}
	// Unchanged tally adds nothing; the stale rate is gone from the view.
	s.scrapeMember(ctx, m)
	if got := total(); got != 400 {
		t.Errorf("injTotal after no-op scrape = %v, want 400", got)
	}
	if st := snap(); len(st.rates) != 0 {
		t.Errorf("rates after a scrape without rate samples = %v, want empty", st.rates)
	}

	// Member restart: the tally fell below the high-water, so the fresh
	// count is new work and the total stays monotone.
	body.Store(`sfid_campaign_done_injections{campaign="j000001"} 30` + "\n")
	s.scrapeMember(ctx, m)
	if got := total(); got != 430 {
		t.Errorf("injTotal after member reset = %v, want 430", got)
	}

	// Scrape failure: down + counted, total untouched.
	srv.Close()
	s.scrapeMember(ctx, m)
	st = snap()
	if st.up || st.scrapeErrs != 1 {
		t.Errorf("after failed scrape up=%v errs=%d, want down with 1 error", st.up, st.scrapeErrs)
	}
	if got := total(); got != 430 {
		t.Errorf("injTotal after failed scrape = %v, want 430 (unchanged)", got)
	}

	// Failed scrapes are not fleet RPCs: however many fail, the member's
	// dispatch breaker stays closed.
	for i := 0; i < 3; i++ {
		s.scrapeMember(ctx, m)
	}
	if st := snap(); st.scrapeErrs != 4 {
		t.Errorf("scrape errors after four failed scrapes = %d, want 4", st.scrapeErrs)
	}
	if !s.fed.available(srv.URL) {
		t.Error("failed scrapes opened the member's dispatch breaker")
	}

	// A member outside the heartbeat timeout is marked down without
	// being polled at all.
	dead := m
	dead.Alive = false
	s.scrapeMember(ctx, dead)
	if st := snap(); st.up {
		t.Error("dead member still marked up")
	}
}
