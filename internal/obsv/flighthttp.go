package obsv

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// flightRecordJSON is the wire form of one FlightRecord: ids rendered as
// fixed-width hex (the same form Result.TraceID and Prometheus
// exemplars use), times in RFC3339Nano / milliseconds.
type flightRecordJSON struct {
	Trace  string  `json:"trace"`
	Span   string  `json:"span"`
	Parent string  `json:"parent,omitempty"`
	Kind   string  `json:"kind"`
	Name   string  `json:"name"`
	Detail string  `json:"detail,omitempty"`
	Tenant string  `json:"tenant,omitempty"`
	Job    string  `json:"job,omitempty"`
	Arg    int64   `json:"arg,omitempty"`
	Start  string  `json:"start"`
	WallMS float64 `json:"wall_ms,omitempty"`
}

// flightIncidentJSON is the wire form of one preserved incident dump.
type flightIncidentJSON struct {
	Trace   string             `json:"trace"`
	Reason  string             `json:"reason"`
	At      string             `json:"at"`
	Records []flightRecordJSON `json:"records"`
}

// flightDumpJSON is the GET /debug/flight response body.
type flightDumpJSON struct {
	Entries   int                  `json:"entries"`
	Records   []flightRecordJSON   `json:"records"`
	Incidents []flightIncidentJSON `json:"incidents,omitempty"`
}

// FlightID renders a trace or span id in the canonical fixed-width hex
// form shared by /debug/flight, Result.TraceID, and the Prometheus
// exemplars, so an id copied from any one surface greps in the others.
func FlightID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseFlightID parses the canonical hex form back to an id; 0 on
// malformed input.
func ParseFlightID(s string) uint64 {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// recordJSON converts one record to its wire form.
func recordJSON(r FlightRecord) flightRecordJSON {
	out := flightRecordJSON{
		Trace:  FlightID(r.Trace),
		Span:   FlightID(r.Span),
		Kind:   r.Kind,
		Name:   r.Name,
		Detail: r.Detail,
		Tenant: r.Tenant,
		Job:    r.Job,
		Arg:    r.Arg,
		Start:  time.Unix(0, r.Start).UTC().Format(time.RFC3339Nano),
		WallMS: float64(r.WallNS) / 1e6,
	}
	if r.Parent != 0 {
		out.Parent = FlightID(r.Parent)
	}
	return out
}

// FlightHandler serves the recorder as GET /debug/flight: a JSON dump of
// the retained records plus the preserved incident dumps. Query
// parameters filter the window: trace (hex id), tenant, job, and limit
// (max records, most recent win). The trace, tenant and job filters
// apply to incidents too: an incident is kept when one of its records
// matches, so one tenant's dump never shows another's failures. A nil
// recorder serves an empty dump.
func FlightHandler(f *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		trace := ParseFlightID(q.Get("trace"))
		if q.Get("trace") != "" && trace == 0 {
			http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
			return
		}
		limit := 0
		if ls := q.Get("limit"); ls != "" {
			n, err := strconv.Atoi(ls)
			if err != nil || n < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			limit = n
		}
		tenant, job := q.Get("tenant"), q.Get("job")
		recs := f.Snapshot(trace, tenant, job, limit)
		dump := flightDumpJSON{
			Entries: f.Entries(),
			Records: make([]flightRecordJSON, len(recs)),
		}
		for i, rec := range recs {
			dump.Records[i] = recordJSON(rec)
		}
		for _, inc := range f.Incidents() {
			if !incidentMatches(inc, trace, tenant, job) {
				continue
			}
			ij := flightIncidentJSON{
				Trace:   FlightID(inc.Trace),
				Reason:  inc.Reason,
				At:      inc.At.UTC().Format(time.RFC3339Nano),
				Records: make([]flightRecordJSON, len(inc.Records)),
			}
			for i, rec := range inc.Records {
				ij.Records[i] = recordJSON(rec)
			}
			dump.Incidents = append(dump.Incidents, ij)
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(dump)
	})
}

// incidentMatches reports whether inc passes the dump's filters: its
// trace is trace, and one of its records carries tenant and job. Zero
// filters match anything, as in Snapshot.
func incidentMatches(inc FlightIncident, trace uint64, tenant, job string) bool {
	if trace != 0 && inc.Trace != trace {
		return false
	}
	for _, r := range inc.Records {
		if (tenant == "" || r.Tenant == tenant) && (job == "" || r.Job == job) {
			return true
		}
	}
	return tenant == "" && job == ""
}
