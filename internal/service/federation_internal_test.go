package service

import (
	"context"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestLoadParentFormatFederationDocument pins the resume path for
// federation documents written before copy lists: the single-holder
// member_*, spec_member_* and local fields of each part become that
// part's copies, and everything else survives the load unchanged.
func TestLoadParentFormatFederationDocument(t *testing.T) {
	s, err := New(Config{Dir: t.TempDir(), Coordinator: true, MemberTimeout: time.Hour, ScrapeInterval: time.Hour})
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
	const doc = `{
 "id": "j000007",
 "plan_fingerprint": 42,
 "parts": [
  {"ranges": [{"from": 0, "to": 10}], "member_url": "http://a:1", "member_job": "j000001", "member_name": "alpha",
   "fetched": true, "done": 10, "critical": 3, "abandoned_lanes": 1},
  {"ranges": [{"from": 10, "to": 20}], "member_url": "http://b:1", "member_job": "j000002", "member_name": "beta",
   "spec_member_url": "http://a:1", "spec_member_job": "j000003", "spec_member_name": "alpha", "reassigned": 2},
  {"ranges": [{"from": 20, "to": 30}], "local": true},
  {"ranges": [{"from": 30, "to": 40}], "member_name": "coordinator", "local": true, "fetched": true, "done": 10},
  {"ranges": [{"from": 40, "to": 50}]}
 ]
}
`
	if err := os.WriteFile(s.fedPath("j000007"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	fed := s.loadOrInitFed(&job{id: "j000007"}, 42)
	want := [][]fedCopy{
		{{URL: "http://a:1", Job: "j000001", Label: "alpha"}},
		{{URL: "http://b:1", Job: "j000002", Label: "beta"}, {URL: "http://a:1", Job: "j000003", Label: "alpha"}},
		{{Label: localMemberLabel}},
		{{Label: localMemberLabel}},
		nil,
	}
	if len(fed.Parts) != len(want) {
		t.Fatalf("loaded %d parts, want %d", len(fed.Parts), len(want))
	}
	for k, p := range fed.Parts {
		if !reflect.DeepEqual(p.Copies, want[k]) {
			t.Errorf("part %d copies = %+v, want %+v", k, p.Copies, want[k])
		}
	}
	if p := fed.Parts[0]; !p.Fetched || p.Done != 10 || p.Critical != 3 || p.AbandonedLanes != 1 {
		t.Errorf("fetched part 0 = %+v, want its tallies kept", p)
	}
	if p := fed.Parts[1]; p.Fetched || p.Reassigned != 2 || p.Ranges[0].From != 10 {
		t.Errorf("running part 1 = %+v, want its window and reassignment count kept", p)
	}
	if p := fed.Parts[3]; !p.Fetched || p.Done != 10 {
		t.Errorf("fetched local part 3 = %+v, want its tally kept", p)
	}
}
