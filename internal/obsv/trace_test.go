package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanNestingAndOrdering: Child spans carry depth and lane, Spans()
// returns chronological order with parents before children, and Top
// ranks by wall time.
func TestSpanNestingAndOrdering(t *testing.T) {
	// Timer slack can inflate the shorter sleep past the longer one on a
	// loaded host (a 1ms sleep overshooting to ~4ms is routine), so keep
	// a wide gap between the phases and retry best-of-3 like the
	// cancellation-latency test.
	var tr *Trace
	for attempt := 1; ; attempt++ {
		tr = NewTrace()
		root := tr.Start("solve")
		a := root.Child("phaseA")
		time.Sleep(8 * time.Millisecond)
		a.End()
		b := root.Child("phaseB")
		time.Sleep(time.Millisecond)
		b.End()
		root.End()
		sp := tr.Spans()
		if len(sp) == 3 && sp[1].Wall > sp[2].Wall {
			break
		}
		if attempt == 3 {
			t.Fatalf("phaseA did not out-sleep phaseB in %d attempts: %+v", attempt, sp)
		}
	}

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Name != "solve" || spans[1].Name != "phaseA" || spans[2].Name != "phaseB" {
		t.Fatalf("chronological order wrong: %q %q %q", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[0].Depth != 0 || spans[1].Depth != 1 || spans[2].Depth != 1 {
		t.Fatalf("depths = %d %d %d, want 0 1 1", spans[0].Depth, spans[1].Depth, spans[2].Depth)
	}
	if spans[1].Lane != spans[0].Lane {
		t.Fatalf("Child changed lane: %d vs %d", spans[1].Lane, spans[0].Lane)
	}
	// The root contains both children, so it must have the largest wall
	// time; phaseA slept longer than phaseB.
	top := tr.Top(3)
	if top[0].Name != "solve" || top[1].Name != "phaseA" || top[2].Name != "phaseB" {
		t.Fatalf("Top order wrong: %q %q %q", top[0].Name, top[1].Name, top[2].Name)
	}
	if got := tr.Top(1); len(got) != 1 {
		t.Fatalf("Top(1) returned %d spans", len(got))
	}
	// Containment: both children start at or after the root and end
	// within its wall time.
	for _, sp := range spans[1:] {
		if sp.Start < spans[0].Start || sp.Start+sp.Wall > spans[0].Start+spans[0].Wall+time.Millisecond {
			t.Errorf("span %s [%v +%v] escapes root [%v +%v]",
				sp.Name, sp.Start, sp.Wall, spans[0].Start, spans[0].Wall)
		}
	}
}

// TestTraceNilSafety: a nil trace and its nil spans are no-ops that
// allocate nothing.
func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(100, func() {
		sp := tr.Start("x")
		sp.Child("y").End()
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocates %.1f per span, want 0", allocs)
	}
	if tr.Len() != 0 || tr.Spans() != nil || tr.Top(3) != nil {
		t.Error("nil trace reports spans")
	}
	if tr.Lane() != 0 {
		t.Error("nil trace allocates lanes")
	}
	if err := tr.WriteChrome(&bytes.Buffer{}); err != nil {
		t.Errorf("nil WriteChrome: %v", err)
	}
	if got := tr.String(); got != "trace: (empty)" {
		t.Errorf("nil String = %q", got)
	}
}

// TestTraceConcurrentLanes: spans started on worker lanes from many
// goroutines all land in the trace (run under -race by make check).
func TestTraceConcurrentLanes(t *testing.T) {
	tr := NewTrace()
	root := tr.Start("solve")
	var wg sync.WaitGroup
	const workers = 8
	lanes := map[int]bool{}
	var mu sync.Mutex
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.Lane()
			mu.Lock()
			lanes[lane] = true
			mu.Unlock()
			for i := 0; i < 10; i++ {
				root.ChildLane(lane, "tile").End()
			}
		}()
	}
	wg.Wait()
	root.End()
	if len(lanes) != workers {
		t.Fatalf("lane collision: %d distinct lanes for %d workers", len(lanes), workers)
	}
	if got := tr.Len(); got != workers*10+1 {
		t.Fatalf("got %d spans, want %d", got, workers*10+1)
	}
}

// TestWriteChrome: the emitted JSON parses, uses complete events for
// spans plus metadata events for process and labeled lane names, and
// maps lanes to tids.
func TestWriteChrome(t *testing.T) {
	tr := NewTrace()
	lane := tr.Lane()
	tr.LabelLane(lane, "tile-worker-0")
	sp := tr.Start("solve")
	sp.ChildLane(lane, "inner").End()
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
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
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	var complete, meta int
	var laneNamed bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			complete++
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Errorf("event %q has negative time: ts=%f dur=%f", ev.Name, ev.Ts, ev.Dur)
			}
		case "M":
			meta++
			if ev.Name == "thread_name" && ev.Tid == lane && ev.Args["name"] == "tile-worker-0" {
				laneNamed = true
			}
		default:
			t.Errorf("event %q has phase %q, want X or M", ev.Name, ev.Ph)
		}
	}
	if complete != 2 || doc.DisplayTimeUnit != "ms" {
		t.Fatalf("unexpected document (complete=%d): %+v", complete, doc)
	}
	if meta != 2 || !laneNamed {
		t.Fatalf("metadata events wrong (meta=%d, laneNamed=%v): %+v", meta, laneNamed, doc)
	}
}

// TestTraceString renders lanes and indentation.
func TestTraceString(t *testing.T) {
	tr := NewTrace()
	sp := tr.Start("solve")
	sp.Child("inner").End()
	sp.End()
	s := tr.String()
	if !strings.Contains(s, "solve") || !strings.Contains(s, "inner") {
		t.Fatalf("String() missing spans: %q", s)
	}
}
