package obsv

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// chromeTrace is the parsed form of a WriteChrome document.
type chromeTrace struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// writeChrome renders recs and parses the document back.
func writeChrome(t *testing.T, recs []FlightRecord) chromeTrace {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChrome(&buf, recs); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON does not parse: %v\n%s", err, buf.String())
	}
	if doc.TraceEvents == nil || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("malformed document: %s", buf.String())
	}
	return doc
}

// checkRows asserts the row rule on a document whose spans carry their
// own span id as arg: walking each row in time order, a span that starts
// inside another span of its row sits directly inside its parent. It
// returns each span id's row.
func checkRows(t *testing.T, doc chromeTrace, recs []FlightRecord) map[uint64]int {
	t.Helper()
	byID := map[uint64]FlightRecord{}
	for _, r := range recs {
		byID[r.Span] = r
	}
	rowOf := map[uint64]int{}
	type open struct {
		id  uint64
		end float64
	}
	stacks := map[int][]open{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		arg, _ := ev.Args["arg"].(float64)
		rec, ok := byID[uint64(arg)]
		if !ok || rec.Kind != FlightKindSpan || rec.Name != ev.Name {
			t.Fatalf("event %q (arg %v) matches no span record", ev.Name, ev.Args["arg"])
		}
		rowOf[rec.Span] = ev.Tid
		st := stacks[ev.Tid]
		// The 1e-3 µs (1 ns) slack absorbs float rounding of
		// back-to-back spans.
		for len(st) > 0 && st[len(st)-1].end <= ev.Ts+1e-3 {
			st = st[:len(st)-1]
		}
		if len(st) > 0 && st[len(st)-1].id != rec.Parent {
			t.Errorf("row %d: %s (span %d, parent %d) sits inside span %d",
				ev.Tid, rec.Name, rec.Span, rec.Parent, st[len(st)-1].id)
		}
		stacks[ev.Tid] = append(st, open{rec.Span, ev.Ts + ev.Dur})
	}
	return rowOf
}

// span builds a span record whose Arg is its own id, as checkRows needs.
func span(id, parent uint64, name string, start, wall int64) FlightRecord {
	return FlightRecord{Trace: 1, Span: id, Parent: parent, Kind: FlightKindSpan,
		Name: name, Arg: int64(id), Start: start, WallNS: wall}
}

// TestWriteChrome: the writer derives rows from parent links —
// concurrent siblings land on distinct rows, every row holds top-level
// spans plus spans directly inside their parent, and each row is named
// after its first span. Events are skipped, and input without spans
// still writes a valid document.
func TestWriteChrome(t *testing.T) {
	const us = int64(time.Microsecond)
	recs := []FlightRecord{
		span(1, 0, "solve:PGLL", 1000*us, 100*us),
		span(2, 1, "pgreedy/speculate", 1001*us, 50*us),
		span(3, 2, "tile", 1002*us, 20*us),
		span(4, 2, "tile", 1003*us, 40*us), // overlaps tile 3
		span(5, 2, "tile", 1022*us, 5*us),  // starts as tile 3 ends
		span(6, 0, "solve:GLL", 1005*us, 10*us),
		span(7, 1, "pgreedy/repair", 1060*us, 30*us),
		span(8, 7, "round", 1061*us, 10*us),
		span(9, 8, "sweep", 1061*us, 5*us),
		{Trace: 1, Span: 10, Parent: 3, Kind: FlightKindEvent, Name: "fault.injected", Start: 1010 * us},
	}
	doc := writeChrome(t, recs)
	var spans, procs int
	var rows []string
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph == "X":
			spans++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q has negative time: ts=%f dur=%f", ev.Name, ev.Ts, ev.Dur)
			}
		case ev.Ph == "M" && ev.Name == "process_name":
			procs++
		case ev.Ph == "M" && ev.Name == "thread_name":
			if ev.Tid != len(rows) {
				t.Errorf("thread_name for tid %d out of order", ev.Tid)
			}
			rows = append(rows, ev.Args["name"].(string))
		default:
			t.Errorf("unexpected event %q with phase %q", ev.Name, ev.Ph)
		}
	}
	if spans != 9 || procs != 1 {
		t.Errorf("got %d spans and %d process rows, want 9 and 1 (events are skipped)", spans, procs)
	}
	rowOf := checkRows(t, doc, recs)
	want := map[uint64]int{1: 0, 2: 0, 3: 0, 4: 1, 5: 0, 6: 2, 7: 0, 8: 0, 9: 0}
	for id, row := range want {
		if rowOf[id] != row {
			t.Errorf("span %d on row %d, want %d", id, rowOf[id], row)
		}
	}
	if len(rows) != 3 || rows[0] != "solve:PGLL" || rows[1] != "tile" || rows[2] != "solve:GLL" {
		t.Errorf("row names = %q, want [solve:PGLL tile solve:GLL]", rows)
	}

	for _, in := range [][]FlightRecord{nil, recs[9:]} {
		if doc := writeChrome(t, in); len(doc.TraceEvents) != 0 {
			t.Errorf("spanless input wrote %d events", len(doc.TraceEvents))
		}
	}
}

// TestSpanNestingAndOrdering: spans opened through a context chain carry
// their parent's id and snapshot chronologically, and WriteChrome emits
// an enclosing span before the spans it contains even when their start
// times tie.
func TestSpanNestingAndOrdering(t *testing.T) {
	f := NewFlightRecorder(64, nil)
	root := f.NewContext("", "").Start("solve")
	a := root.Context().Start("phaseA")
	a.End()
	b := root.Context().Start("phaseB")
	b.End()
	root.End()
	recs := f.Snapshot(0, "", "", 0)
	if len(recs) != 3 || recs[0].Name != "solve" || recs[1].Name != "phaseA" || recs[2].Name != "phaseB" {
		t.Fatalf("snapshot not chronological: %+v", recs)
	}
	for _, r := range recs[1:] {
		if r.Parent != recs[0].Span {
			t.Errorf("%s parent = %d, want the solve span %d", r.Name, r.Parent, recs[0].Span)
		}
		if r.Start < recs[0].Start || spanEnd(r) > spanEnd(recs[0]) {
			t.Errorf("%s [%d +%d] escapes solve [%d +%d]", r.Name, r.Start, r.WallNS, recs[0].Start, recs[0].WallNS)
		}
	}

	// Same start: the longer span encloses; same start and wall: the
	// parent, whose id is minted first.
	tied := []FlightRecord{
		span(4, 3, "inner", 50, 10),
		span(3, 2, "middle", 50, 10),
		span(2, 1, "outer", 50, 20),
		span(1, 0, "root", 0, 100),
	}
	var order []string
	for _, ev := range writeChrome(t, tied).TraceEvents {
		if ev.Ph == "X" {
			order = append(order, ev.Name)
			if ev.Tid != 0 {
				t.Errorf("%s on row %d, want the single row 0", ev.Name, ev.Tid)
			}
		}
	}
	if len(order) != 4 || order[0] != "root" || order[1] != "outer" || order[2] != "middle" || order[3] != "inner" {
		t.Errorf("event order = %q, want [root outer middle inner]", order)
	}
}

// TestTraceNilSafety: with tracing off (a nil recorder), a span, a child
// opened through its context, and their ends are no-ops that allocate
// nothing, and the empty snapshot still exports as a valid Chrome
// document.
func TestTraceNilSafety(t *testing.T) {
	var f *FlightRecorder
	tc := f.NewContext("job", "tenant")
	if n := testing.AllocsPerRun(100, func() {
		sp := tc.Start("x")
		sp.Context().Start("y").End()
		sp.End()
	}); n != 0 {
		t.Errorf("disabled tracing allocates %.1f per span, want 0", n)
	}
	recs := f.Snapshot(0, "", "", 0)
	if recs != nil {
		t.Errorf("nil recorder reports spans: %+v", recs)
	}
	if doc := writeChrome(t, recs); len(doc.TraceEvents) != 0 {
		t.Errorf("empty snapshot wrote %d events", len(doc.TraceEvents))
	}
}

// TestTraceConcurrentLanes: spans recorded from many goroutines at once
// all land in the recorder (run under -race by make check), and the
// Chrome rows derived from them keep overlapping siblings apart.
func TestTraceConcurrentLanes(t *testing.T) {
	f := NewFlightRecorder(1024, nil)
	root := f.NewContext("", "").Start("solve")
	tc := root.Context()
	var wg sync.WaitGroup
	const workers, each = 8, 10
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				sp := tc.Start("tile")
				time.Sleep(50 * time.Microsecond)
				sp.EndDetail("", int64(sp.ID()))
			}
		}()
	}
	wg.Wait()
	root.EndDetail("", int64(root.ID()))
	recs := f.Snapshot(0, "", "", 0)
	if len(recs) != workers*each+1 {
		t.Fatalf("got %d spans, want %d", len(recs), workers*each+1)
	}
	rowOf := checkRows(t, writeChrome(t, recs), recs)
	for i, a := range recs {
		for _, b := range recs[i+1:] {
			overlap := a.Start < spanEnd(b) && b.Start < spanEnd(a)
			if a.Name == "tile" && b.Name == "tile" && overlap && rowOf[a.Span] == rowOf[b.Span] {
				t.Errorf("overlapping tiles %d and %d share row %d", a.Span, b.Span, rowOf[a.Span])
			}
		}
	}
}
