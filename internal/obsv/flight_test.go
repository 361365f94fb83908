package obsv

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestFlightSpanTree: spans and events made through a context chain
// carry the same trace id and parent correctly.
func TestFlightSpanTree(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	tc := f.NewContext("job-1", "acme")
	root := tc.Start("admission")
	child := root.Context()
	solve := child.Start("solve")
	solve.Context().Event("fault.injected", "", 3)
	solve.EndDetail("", 7)
	child.Observe("batch", time.Now().Add(-time.Millisecond), time.Millisecond)
	root.End()

	recs := f.Snapshot(tc.TraceID(), "", "", 0)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4: %+v", len(recs), recs)
	}
	byName := map[string]FlightRecord{}
	for _, r := range recs {
		if r.Trace != tc.TraceID() {
			t.Errorf("record %q has trace %d, want %d", r.Name, r.Trace, tc.TraceID())
		}
		if r.Tenant != "acme" || r.Job != "job-1" {
			t.Errorf("record %q lost identity: %+v", r.Name, r)
		}
		byName[r.Name] = r
	}
	if byName["admission"].Parent != 0 {
		t.Errorf("admission should be a root, parent=%d", byName["admission"].Parent)
	}
	if got, want := byName["solve"].Parent, byName["admission"].Span; got != want {
		t.Errorf("solve parent=%d, want admission span %d", got, want)
	}
	if got, want := byName["batch"].Parent, byName["admission"].Span; got != want {
		t.Errorf("batch parent=%d, want admission span %d", got, want)
	}
	if got, want := byName["fault.injected"].Parent, byName["solve"].Span; got != want {
		t.Errorf("fault.injected parent=%d, want solve span %d", got, want)
	}
	if byName["solve"].Arg != 7 {
		t.Errorf("solve arg=%d, want 7", byName["solve"].Arg)
	}
	if byName["fault.injected"].Kind != FlightKindEvent || byName["solve"].Kind != FlightKindSpan {
		t.Errorf("kinds wrong: %+v", byName)
	}
}

// TestFlightSnapshotFilters: tenant/job/trace filters select the right
// subsets, and limit keeps the most recent records.
func TestFlightSnapshotFilters(t *testing.T) {
	f := NewFlightRecorder(128, nil)
	a := f.NewContext("job-1", "acme")
	b := f.NewContext("job-2", "bob")
	a.Event("one", "", 0)
	b.Event("two", "", 0)
	a.Event("three", "", 0)

	if got := len(f.Snapshot(0, "acme", "", 0)); got != 2 {
		t.Errorf("tenant filter: got %d, want 2", got)
	}
	if got := len(f.Snapshot(0, "", "job-2", 0)); got != 1 {
		t.Errorf("job filter: got %d, want 1", got)
	}
	if got := len(f.Snapshot(b.TraceID(), "", "", 0)); got != 1 {
		t.Errorf("trace filter: got %d, want 1", got)
	}
	lim := f.Snapshot(a.TraceID(), "", "", 1)
	if len(lim) != 1 || lim[0].Name != "three" {
		t.Errorf("limit should keep the most recent: %+v", lim)
	}
}

// TestFlightRingOverwrite: a small ring retains only recent records but
// never errors or grows.
func TestFlightRingOverwrite(t *testing.T) {
	f := NewFlightRecorder(1, nil) // rounds up to the shard minimum
	cap := f.Entries()
	tc := f.NewContext("", "")
	for i := 0; i < 10*cap; i++ {
		tc.Event("e", "", int64(i))
	}
	recs := f.Snapshot(0, "", "", 0)
	if len(recs) > cap {
		t.Fatalf("ring grew past capacity: %d > %d", len(recs), cap)
	}
	if len(recs) == 0 {
		t.Fatal("ring retained nothing")
	}
}

// TestFlightIncident: an incident dump preserves the trace's records and
// the buffer stays bounded.
func TestFlightIncident(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	tc := f.NewContext("job-9", "acme")
	tc.Event("before", "", 0)
	f.Incident(tc.TraceID(), "solve error: boom")
	// Overwrite the ring with other traffic.
	other := f.NewContext("", "")
	for i := 0; i < 10*f.Entries(); i++ {
		other.Event("noise", "", 0)
	}
	incs := f.Incidents()
	if len(incs) != 1 {
		t.Fatalf("got %d incidents, want 1", len(incs))
	}
	if incs[0].Reason != "solve error: boom" || incs[0].Trace != tc.TraceID() {
		t.Errorf("incident header wrong: %+v", incs[0])
	}
	if len(incs[0].Records) != 1 || incs[0].Records[0].Name != "before" {
		t.Errorf("incident lost the trace's records: %+v", incs[0].Records)
	}
	for i := 0; i < 3*maxIncidents; i++ {
		f.Incident(tc.TraceID(), "again")
	}
	if got := len(f.Incidents()); got != maxIncidents {
		t.Errorf("incident buffer unbounded: %d, want %d", got, maxIncidents)
	}
	// Zero trace ids never dump.
	f.Incident(0, "nope")
	for _, inc := range f.Incidents() {
		if inc.Trace == 0 {
			t.Error("zero-trace incident recorded")
		}
	}
}

// TestFlightNilSafety: every method on nil recorders, contexts, and the
// zero span is a no-op, and the whole disabled chain allocates nothing.
func TestFlightNilSafety(t *testing.T) {
	var f *FlightRecorder
	if f.NewContext("j", "t") != nil {
		t.Error("nil recorder minted a context")
	}
	if f.Snapshot(0, "", "", 0) != nil || f.Incidents() != nil || f.Entries() != 0 {
		t.Error("nil recorder returned data")
	}
	f.RecordEvent(1, "x", "", 0)
	f.Incident(1, "x")

	var tc *TraceContext
	if tc.TraceID() != 0 || tc.Job() != "" || tc.Tenant() != "" {
		t.Error("nil context leaked state")
	}
	sp := tc.Start("x")
	if sp.Active() || sp.ID() != 0 || sp.Context() != nil {
		t.Error("nil context's span is live")
	}
	if n := testing.AllocsPerRun(200, func() {
		s := tc.Start("solve")
		tc.Event("e", "", 1)
		tc.Observe("o", time.Time{}, 0)
		s.End()
	}); n != 0 {
		t.Errorf("disabled flight path allocates %.1f per run, want 0", n)
	}
}

// TestFlightRecordNoAllocs pins the enabled record hot path: with a
// sized ring, opening and ending a span (and recording an event) heap-
// allocates nothing — the record is copied into a preallocated slot.
func TestFlightRecordNoAllocs(t *testing.T) {
	f := NewFlightRecorder(256, nil)
	tc := f.NewContext("job-1", "acme")
	if n := testing.AllocsPerRun(200, func() {
		s := tc.Start("solve")
		s.EndDetail("", 3)
	}); n != 0 {
		t.Errorf("span record path allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		tc.Event("fault.injected", "", 2)
	}); n != 0 {
		t.Errorf("event record path allocates %.1f per run, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		f.RecordEvent(tc.TraceID(), "fault.injected", "site", 1)
	}); n != 0 {
		t.Errorf("raw event record path allocates %.1f per run, want 0", n)
	}
}

// TestFlightHandler: the /debug/flight dump round-trips through JSON
// with hex ids and honors the query filters — for incidents too, so one
// tenant's dump never carries another tenant's failure.
func TestFlightHandler(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	tc := f.NewContext("job-1", "acme")
	sp := tc.Start("admission")
	sp.End()
	f.Incident(tc.TraceID(), "shed: test")
	bob := f.NewContext("job-2", "bob")
	bob.Start("admission").End()
	f.Incident(bob.TraceID(), "solve error: bob")

	h := FlightHandler(f)
	req := httptest.NewRequest("GET", "/debug/flight?job=job-1", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	var dump struct {
		Entries int `json:"entries"`
		Records []struct {
			Trace string `json:"trace"`
			Name  string `json:"name"`
			Kind  string `json:"kind"`
		} `json:"records"`
		Incidents []struct {
			Reason string `json:"reason"`
		} `json:"incidents"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &dump); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rr.Body.String())
	}
	if dump.Entries != f.Entries() {
		t.Errorf("entries=%d, want %d", dump.Entries, f.Entries())
	}
	if len(dump.Records) != 1 || dump.Records[0].Name != "admission" {
		t.Fatalf("records wrong: %+v", dump.Records)
	}
	if dump.Records[0].Trace != FlightID(tc.TraceID()) {
		t.Errorf("trace hex mismatch: %q", dump.Records[0].Trace)
	}
	if len(dump.Incidents) != 1 || dump.Incidents[0].Reason != "shed: test" {
		t.Errorf("incidents wrong: %+v", dump.Incidents)
	}
	for _, q := range []string{"tenant=bob", "job=job-2", "trace=" + FlightID(bob.TraceID())} {
		rr = httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/flight?"+q, nil))
		body := rr.Body.String()
		if !strings.Contains(body, "solve error: bob") || strings.Contains(body, "shed: test") {
			t.Errorf("?%s: want bob's incident alone:\n%s", q, body)
		}
	}

	// Trace filter by hex id.
	req = httptest.NewRequest("GET", "/debug/flight?trace="+FlightID(tc.TraceID()), nil)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if !strings.Contains(rr.Body.String(), "admission") {
		t.Error("trace filter dropped the matching record")
	}
	// Malformed trace ids 400.
	req = httptest.NewRequest("GET", "/debug/flight?trace=zzz", nil)
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != 400 {
		t.Errorf("bad trace id got %d, want 400", rr.Code)
	}
}

// TestFlightIDRoundTrip: the canonical hex form parses back.
func TestFlightIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeef, ^uint64(0)} {
		if got := ParseFlightID(FlightID(id)); got != id {
			t.Errorf("round trip %d -> %q -> %d", id, FlightID(id), got)
		}
	}
	if ParseFlightID("not-hex") != 0 {
		t.Error("malformed id parsed")
	}
}
