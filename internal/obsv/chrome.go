package obsv

import (
	"encoding/json"
	"io"
	"sort"
)

// chromeEvent is one event of the Chrome trace-event format, the JSON
// that chrome://tracing and Perfetto load directly: complete spans use
// "ph":"X" with Ts/Dur, metadata rows (process_name / thread_name) use
// "ph":"M" with only Args.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the first span
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the top-level Chrome trace JSON object.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders flight-recorder records — typically a Snapshot —
// as Chrome trace-event JSON: one "X" (complete) event per span, with
// the span's Arg and Detail as args when set. Events are skipped.
//
// The recorder keeps no thread identity, so the rows (tids) are derived:
// spans are visited by start time, enclosing spans first, and each goes
// on the lowest row whose innermost open span is its parent, else on the
// lowest idle row, else on a new row. Every row thus holds top-level
// spans and spans sitting directly inside their parent, and concurrent
// siblings — tile workers, portfolio members — get rows of their own.
// Laying rows out by time containment alone would nest one worker's
// short tiles inside another worker's long tile.
//
// A process_name row and one thread_name row per tid (named after the
// row's first span) precede the spans. Input without spans writes a
// valid document with no events.
func WriteChrome(w io.Writer, recs []FlightRecord) error {
	var spans []FlightRecord
	for _, r := range recs {
		if r.Kind == FlightKindSpan {
			spans = append(spans, r)
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.WallNS != b.WallNS {
			return a.WallNS > b.WallNS
		}
		return a.Span < b.Span // a parent's id is minted before its children's
	})
	rows, names := chromeRows(spans)

	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(spans)+len(names)+1), DisplayTimeUnit: "ms"}
	if len(spans) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "ivc"},
		})
	}
	for tid, name := range names {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	for i, sp := range spans {
		ev := chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.Start-spans[0].Start) / 1e3,
			Dur:  float64(sp.WallNS) / 1e3,
			Pid:  1,
			Tid:  rows[i],
		}
		if sp.Arg != 0 || sp.Detail != "" {
			ev.Args = map[string]any{}
			if sp.Arg != 0 {
				ev.Args["arg"] = sp.Arg
			}
			if sp.Detail != "" {
				ev.Args["detail"] = sp.Detail
			}
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}
	return json.NewEncoder(w).Encode(doc)
}

// chromeRows assigns each span of spans (sorted by start, enclosing
// spans first) its row, by the rule WriteChrome documents, and returns
// the rows plus each row's name: the name of its first span.
func chromeRows(spans []FlightRecord) (rows []int, names []string) {
	rows = make([]int, len(spans))
	var open [][]FlightRecord // per row, its open spans, innermost last
	for i, sp := range spans {
		row, idle := -1, -1
		for k, stack := range open {
			for len(stack) > 0 && spanEnd(stack[len(stack)-1]) <= sp.Start {
				stack = stack[:len(stack)-1]
			}
			open[k] = stack
			switch {
			case len(stack) == 0:
				if idle < 0 {
					idle = k
				}
			case row < 0 && stack[len(stack)-1].Span == sp.Parent:
				row = k
			}
		}
		if row < 0 {
			row = idle
		}
		if row < 0 {
			row = len(open)
			open = append(open, nil)
			names = append(names, sp.Name)
		}
		open[row] = append(open[row], sp)
		rows[i] = row
	}
	return rows, names
}

// spanEnd is a span record's end time in Unix nanoseconds.
func spanEnd(r FlightRecord) int64 { return r.Start + r.WallNS }
