package chaos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"stencilivc/internal/obsv"
)

// streamLine is the subset of an exported flight record these tests
// read; JSON field matching is case-insensitive.
type streamLine struct {
	Trace, Name, Detail string
	Arg                 int64
}

// streamLines decodes every JSON line of an Export stream.
func streamLines(t *testing.T, buf *bytes.Buffer) []streamLine {
	t.Helper()
	var out []streamLine
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var l streamLine
		if err := json.Unmarshal([]byte(line), &l); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		out = append(out, l)
	}
	return out
}

// TestWithEvents: every fault firing streams one fault.injected record
// carrying the site as its detail and the 1-based visit number as its
// arg; visits that do not fire stream nothing.
func TestWithEvents(t *testing.T) {
	var buf bytes.Buffer
	rec := obsv.NewFlightRecorder(64, nil)
	rec.Export(&buf)
	in := New(1).EveryNth(siteA, 2, 2).WithFlight(rec)
	for v := 1; v <= 8; v++ {
		in.Inject(siteA)
		in.Inject(siteB) // unconfigured site: never fires, never records
	}
	lines := streamLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d stream lines %q, want 2 (budget)", len(lines), buf.String())
	}
	for i, l := range lines {
		if want := int64(2 * (i + 1)); l.Name != "fault.injected" || l.Detail != string(siteA) || l.Arg != want {
			t.Errorf("line %d = %+v, want fault.injected site %s visit %d", i, l, siteA, want)
		}
	}
}

// TestInjectTraced: a traced firing records fault.injected under the
// trace id, in the ring and on the stream; an untraced firing reaches
// the stream with a zero trace id and leaves the ring alone.
func TestInjectTraced(t *testing.T) {
	var buf bytes.Buffer
	rec := obsv.NewFlightRecorder(64, nil)
	rec.Export(&buf)
	in := New(1).EveryNth(siteA, 1, 0).WithFlight(rec)
	if !in.InjectTraced(siteA, 0xfeed) {
		t.Fatal("traced rule did not fire")
	}
	if !in.Inject(siteA) {
		t.Fatal("untraced rule did not fire")
	}
	lines := streamLines(t, &buf)
	if len(lines) != 2 {
		t.Fatalf("got %d stream lines %q, want 2", len(lines), buf.String())
	}
	if lines[0].Trace != obsv.FlightID(0xfeed) {
		t.Errorf("traced firing trace = %v, want %s", lines[0].Trace, obsv.FlightID(0xfeed))
	}
	if lines[1].Trace != obsv.FlightID(0) {
		t.Errorf("untraced firing carries trace %v", lines[1].Trace)
	}
	recs := rec.Snapshot(0xfeed, "", "", 0)
	if len(recs) != 1 || recs[0].Name != "fault.injected" || recs[0].Detail != string(siteA) {
		t.Fatalf("flight records for traced firing = %+v, want one fault.injected", recs)
	}
	if all := rec.Snapshot(0, "", "", 0); len(all) != 1 {
		t.Fatalf("recorder holds %d records, want 1 (untraced firing must not enter the ring)", len(all))
	}
}

// TestWithEventsSealed: attaching a recorder after injection started
// would race with lock-free Inject reads, so it panics like a
// post-seal rule edit.
func TestWithEventsSealed(t *testing.T) {
	in := New(1).OnNth(siteA, 1)
	in.Inject(siteA) // seals
	defer func() {
		if recover() == nil {
			t.Error("WithFlight after first Inject did not panic")
		}
	}()
	in.WithFlight(obsv.NewFlightRecorder(8, nil))
}

// TestWithEventsNil: a nil recorder is the disabled default; firing
// faults with it attached must not panic.
func TestWithEventsNil(t *testing.T) {
	in := New(1).OnNth(siteA, 1).WithFlight(nil)
	if !in.Inject(siteA) {
		t.Error("rule did not fire with a nil flight recorder attached")
	}
}
