package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// spanLog records the benchmark's own calls into the simulator — set-up,
// NewNetwork or BuildServeScenario, AddClient, Run, Exchange — in
// memory, for one ride per workload, and writes them as Chrome trace
// JSON (loadable in Perfetto).
// A nil log records nothing.
type spanLog struct {
	mu    sync.Mutex // serve2's shards record Exchange spans concurrently
	t0    time.Time
	spans []span
}

type span struct {
	name       string
	start, end time.Duration // since the log's creation
	parent     int           // index of the causing span, -1 for none
	tid        int           // 0 for the benchmark goroutine, shard+1 for Exchange
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index.
func (l *spanLog) begin(name string, parent, tid int) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: now, end: now, parent: parent, tid: tid})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].end = now
}

// chromeEvent is one trace_event "complete" (ph X) event.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every workload's spans as one Chrome trace, a
// process per workload.
func writeChrome(w io.Writer, results []*workloadResult) error {
	var evs []chromeEvent
	for pid, wr := range results {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: pid + 1,
			Args: map[string]any{"name": wr.name}})
		if wr.spans == nil {
			continue
		}
		for i, s := range wr.spans.spans {
			args := map[string]any{"id": i}
			if s.parent >= 0 {
				args["parent"] = s.parent
			}
			evs = append(evs, chromeEvent{
				Name: s.name, Ph: "X", Pid: pid + 1, Tid: s.tid, Args: args,
				Ts:  float64(s.start.Nanoseconds()) / 1e3,
				Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}
