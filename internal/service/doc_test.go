package service_test

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"cnnsfi/internal/service"
)

// apiDoc loads docs/API.md, the operator-facing reference this package
// must stay in sync with.
func apiDoc(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("docs/API.md must exist and document the API: %v", err)
	}
	return string(data)
}

// TestEveryRouteIsDocumented enforces the acceptance criterion that
// docs/API.md covers the full served surface: each mux route must
// appear verbatim as `METHOD PATTERN`.
func TestEveryRouteIsDocumented(t *testing.T) {
	doc := apiDoc(t)
	routes := service.Routes()
	if len(routes) < 12 {
		t.Fatalf("Routes() lists %d routes, expected the full surface (12+)", len(routes))
	}
	for _, r := range routes {
		want := fmt.Sprintf("`%s %s`", r.Method, r.Pattern)
		if !strings.Contains(doc, want) {
			t.Errorf("docs/API.md is missing route %s", want)
		}
	}
}

// TestFailureModeMatrixIsDocumented enforces the operator contract for
// the resilience layer: docs/OPERATIONS.md must carry a "Failure modes
// and recovery" matrix covering every automatic intervention and the
// signal it emits — the warnings and metric names the code actually
// produces, so an operator chasing a symptom finds the row.
func TestFailureModeMatrixIsDocumented(t *testing.T) {
	data, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatalf("docs/OPERATIONS.md must exist: %v", err)
	}
	doc := string(data)
	if !strings.Contains(doc, "## Failure modes and recovery") {
		t.Fatal("docs/OPERATIONS.md has no \"Failure modes and recovery\" section")
	}
	matrix := doc[strings.Index(doc, "## Failure modes and recovery"):]
	if end := strings.Index(matrix[2:], "\n## "); end >= 0 {
		matrix = matrix[:end+2]
	}
	for _, want := range []string{
		// The metrics the resilience layer exports.
		"sfid_retries_total",
		"sfid_member_breaker_state",
		"sfid_speculative_parts_total",
		"sfid_state_write_errors_total",
		// The warning phrases the coordinator writes onto jobs —
		// verbatim, so a grep of the matrix matches a grep of a job.
		"reassigning its draw ranges",
		"speculatively re-dispatched",
		"degraded mode",
		"state write failed",
	} {
		if !strings.Contains(matrix, want) {
			t.Errorf("failure-mode matrix never mentions %q", want)
		}
	}
}

// TestEverySpecFieldIsDocumented keeps the field tables in docs/API.md
// complete: every JSON field of the request and status schemas must be
// mentioned.
func TestEverySpecFieldIsDocumented(t *testing.T) {
	doc := apiDoc(t)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(service.CampaignSpec{}),
		reflect.TypeOf(service.JobStatus{}),
		reflect.TypeOf(service.JobStateEvent{}),
		reflect.TypeOf(service.MemberStatus{}),
		reflect.TypeOf(service.FleetStatus{}),
		reflect.TypeOf(service.FleetMember{}),
		reflect.TypeOf(service.FleetPart{}),
		reflect.TypeOf(service.ResyncEvent{}),
	} {
		for i := 0; i < typ.NumField(); i++ {
			tag := typ.Field(i).Tag.Get("json")
			name, _, _ := strings.Cut(tag, ",")
			if name == "" || name == "-" {
				continue
			}
			if !strings.Contains(doc, "`"+name+"`") && !strings.Contains(doc, `"`+name+`"`) {
				t.Errorf("docs/API.md never mentions %s field %q", typ.Name(), name)
			}
		}
	}
}

// TestSpecTableMatchesCampaignSpec checks the other direction for the
// request schema: the rows of docs/API.md's "Request body
// (`CampaignSpec`)" table must be exactly the struct's JSON fields, so
// a deleted field cannot linger as documentation.
func TestSpecTableMatchesCampaignSpec(t *testing.T) {
	doc := apiDoc(t)
	_, table, ok := strings.Cut(doc, "Request body (`CampaignSpec`)")
	if !ok {
		t.Fatal("docs/API.md has no \"Request body (`CampaignSpec`)\" table")
	}
	// The table is the first run of consecutive "|" lines after the
	// caption.
	row := regexp.MustCompile("^\\| `(\\w+)` \\|")
	var rows []string
	inTable := false
	for _, line := range strings.Split(table, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		inTable = true
		if m := row.FindStringSubmatch(line); m != nil {
			rows = append(rows, m[1])
		}
	}
	var fields []string
	typ := reflect.TypeOf(service.CampaignSpec{})
	for i := 0; i < typ.NumField(); i++ {
		if name, _, _ := strings.Cut(typ.Field(i).Tag.Get("json"), ","); name != "" && name != "-" {
			fields = append(fields, name)
		}
	}
	slices.Sort(rows)
	slices.Sort(fields)
	if !slices.Equal(rows, fields) {
		t.Errorf("CampaignSpec JSON fields %v\ndocs/API.md spec table rows %v", fields, rows)
	}
}
