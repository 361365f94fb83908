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
	Ts   float64        `json:"ts"`  // microseconds since trace start
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

// WriteChrome emits the trace in Chrome trace-event JSON ("complete"
// events, one tid per lane), loadable by chrome://tracing and Perfetto.
// When the trace has content, a process_name metadata row plus one
// thread_name row per lane labeled via LabelLane precede the spans, so
// tile-worker lanes and per-algorithm solve lanes render with their
// names instead of bare tids. A nil or empty trace writes a valid
// document with no events.
func (t *Trace) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	labels := t.laneLabels()
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, len(spans)+len(labels)+1), DisplayTimeUnit: "ms"}
	if len(spans) > 0 || len(labels) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: 1,
			Args: map[string]any{"name": "ivc"},
		})
		lanes := make([]int, 0, len(labels))
		for lane := range labels {
			lanes = append(lanes, lane)
		}
		sort.Ints(lanes)
		for _, lane := range lanes {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
				Args: map[string]any{"name": labels[lane]},
			})
		}
	}
	for _, sp := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: sp.Name,
			Ph:   "X",
			Ts:   float64(sp.Start.Nanoseconds()) / 1e3,
			Dur:  float64(sp.Wall.Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  sp.Lane,
			Args: map[string]any{"cpu_us": float64(sp.CPU.Nanoseconds()) / 1e3},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
