package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// decodeStream parses Export's JSON-lines output into wire records,
// failing on any line that is not one.
func decodeStream(t *testing.T, buf *bytes.Buffer) []flightRecordJSON {
	t.Helper()
	var out []flightRecordJSON
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var r flightRecordJSON
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		out = append(out, r)
	}
	return out
}

// TestEventSinkJSON: with a stream attached, every record the recorder
// writes — a span when it ends, a traced event, a retroactive span —
// is one JSON line in the /debug/flight record form, in write order;
// an untraced event reaches the stream but not the ring; Export(nil)
// returns the line count and stops the stream.
func TestEventSinkJSON(t *testing.T) {
	reg := NewRegistry()
	f := NewFlightRecorder(64, reg)
	var buf bytes.Buffer
	if n := f.Export(&buf); n != 0 {
		t.Fatalf("first Export returned %d, want 0", n)
	}
	if !f.Exporting() {
		t.Fatal("Exporting is false with a stream attached")
	}
	tc := f.NewContext("job-1", "acme")
	root := tc.Start("solve:GLL")
	child := root.Context()
	child.Event("cache.hit", "GLL", 0)
	child.Observe("batch", time.Unix(0, 5), 2*time.Millisecond)
	f.RecordEvent(0, "cache.evict", "deadbeef", 128)
	root.EndDetail("", 17)

	recs := decodeStream(t, &buf)
	names := make([]string, len(recs))
	for i, r := range recs {
		names[i] = r.Name
	}
	if got := strings.Join(names, " "); got != "cache.hit batch cache.evict solve:GLL" {
		t.Fatalf("stream = %q, want cache.hit batch cache.evict solve:GLL (write order)", got)
	}
	hit, batch, evict, solve := recs[0], recs[1], recs[2], recs[3]
	if solve.Kind != FlightKindSpan || solve.Arg != 17 || solve.Job != "job-1" ||
		solve.Tenant != "acme" || solve.Parent != "" || solve.Trace != FlightID(tc.TraceID()) {
		t.Errorf("solve span = %+v", solve)
	}
	if hit.Kind != FlightKindEvent || hit.Detail != "GLL" || hit.Parent != solve.Span {
		t.Errorf("cache.hit event = %+v, want an event under span %s", hit, solve.Span)
	}
	if batch.Kind != FlightKindSpan || batch.WallMS != 2 || batch.Parent != solve.Span {
		t.Errorf("batch span = %+v, want 2ms under span %s", batch, solve.Span)
	}
	if evict.Kind != FlightKindEvent || evict.Detail != "deadbeef" || evict.Arg != 128 ||
		evict.Trace != FlightID(0) || evict.Job != "" {
		t.Errorf("untraced event = %+v", evict)
	}
	for _, r := range recs {
		if _, err := time.Parse(time.RFC3339Nano, r.Start); err != nil {
			t.Errorf("%s start %q: %v", r.Name, r.Start, err)
		}
	}
	if ring := f.Snapshot(0, "", "", 0); len(ring) != 3 {
		t.Errorf("ring holds %d records, want 3 (the untraced event streams only)", len(ring))
	}
	if got := reg.Counter("flight_records_total", "").Value(); got != 3 {
		t.Errorf("flight_records_total = %d, want 3", got)
	}

	if n := f.Export(nil); n != 4 {
		t.Errorf("Export(nil) = %d, want the 4 lines written", n)
	}
	if f.Exporting() {
		t.Error("Exporting is true after Export(nil)")
	}
	tc.Start("after").End()
	f.RecordEvent(0, "cache.evict", "x", 1)
	if got := len(decodeStream(t, &buf)); got != 4 {
		t.Errorf("stream grew to %d lines after Export(nil), want 4", got)
	}
}

// TestEventSinkNilConstructors: a nil recorder streams nothing and
// reports no stream, and a recorder that never streamed returns 0 from
// Export(nil), so optional wiring passes through unconditionally.
func TestEventSinkNilConstructors(t *testing.T) {
	var f *FlightRecorder
	var buf bytes.Buffer
	if n := f.Export(&buf); n != 0 || f.Exporting() {
		t.Errorf("nil recorder: Export = %d, Exporting = %v", n, f.Exporting())
	}
	f.RecordEvent(0, "cache.evict", "x", 1)
	if buf.Len() != 0 {
		t.Errorf("nil recorder wrote %q", buf.String())
	}
	if n := NewFlightRecorder(8, nil).Export(nil); n != 0 {
		t.Errorf("Export(nil) on a fresh recorder = %d, want 0", n)
	}
}

// TestEventSinkNilAllocs pins the no-stream contract: an untraced
// RecordEvent, the Exporting guard, and traced records on a recorder
// with no stream attached allocate nothing, so wiring the stream
// through the daemon costs nothing until -log asks for it.
func TestEventSinkNilAllocs(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	tc := f.NewContext("job-1", "acme")
	var nilRec *FlightRecorder
	if n := testing.AllocsPerRun(200, func() {
		f.RecordEvent(0, "cache.evict", "key", 64)
		if f.Exporting() || nilRec.Exporting() {
			t.Fatal("no stream attached, yet Exporting is true")
		}
		nilRec.RecordEvent(0, "fault.injected", "site", 1)
		tc.Event("solve.fallback", "pgreedy: reason", 0)
		tc.Start("round").EndDetail("", 1)
	}); n != 0 {
		t.Errorf("no-stream record paths allocate %.1f per run, want 0", n)
	}
	if recs := f.Snapshot(0, "", "", 0); len(recs) == 0 {
		t.Error("traced records did not reach the ring")
	}
	for _, r := range f.Snapshot(0, "", "", 0) {
		if r.Trace == 0 {
			t.Fatalf("untraced event %+v reached the ring", r)
		}
	}
}

// TestExportConcurrent: records written from several goroutines while
// the stream moves from one writer to another each land whole on
// exactly one of the writers, and each Export call returns the count of
// lines its previous writer received.
func TestExportConcurrent(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	var first, second bytes.Buffer
	f.Export(&first)
	const workers, spans = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tc := f.NewContext("job", "t")
			for i := 0; i < spans; i++ {
				tc.Start("tile").EndDetail("", int64(i))
				f.RecordEvent(0, "cache.evict", "k", 1)
			}
		}()
	}
	n1 := f.Export(&second)
	wg.Wait()
	n2 := f.Export(nil)
	l1, l2 := decodeStream(t, &first), decodeStream(t, &second)
	if int64(len(l1)) != n1 || int64(len(l2)) != n2 {
		t.Errorf("Export returned %d and %d, writers hold %d and %d lines", n1, n2, len(l1), len(l2))
	}
	if got := len(l1) + len(l2); got != 2*workers*spans {
		t.Errorf("%d lines streamed for %d records", got, 2*workers*spans)
	}
}
