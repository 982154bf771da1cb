package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed operation recorded by the benchmark around a call into
// one of the program's layers. Spans of one query share a trace id; stage
// spans are children of the query's root span and are laid end to end from
// its start using the answer's own StageTimings. Replay spans re-run one
// layer on the answer's inputs after the timed pass, so they never count
// toward the query's latency.
type span struct {
	Trace   int     `json:"trace"`
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Layer   string  `json:"layer"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Replay  bool    `json:"replay,omitempty"`
}

func (s span) durMS() float64 { return s.EndMS - s.StartMS }

// recorder keeps spans in memory; write dumps them when the run ends. A nil
// recorder records nothing, so untraced runs pay one nil check per call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return ms(t.Sub(r.epoch)) }

// add records one finished span and returns its id (0 from a nil recorder).
func (r *recorder) add(trace, parent int, name, layer string, start, end time.Time, replay bool) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.spans = append(r.spans, span{Trace: trace, ID: r.next, Parent: parent, Name: name, Layer: layer,
		StartMS: r.at(start), EndMS: r.at(end), Replay: replay})
	return r.next
}

// timed runs fn under a span.
func (r *recorder) timed(trace, parent int, name, layer string, replay bool, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	r.add(trace, parent, name, layer, start, end, replay)
	return end.Sub(start), err
}

// selfMS returns each span's self time: its duration minus the part its
// children cover (children never overlap, so that is their summed duration).
func (r *recorder) selfMS() map[int]float64 {
	self := make(map[int]float64, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.durMS()
		if s.Parent != 0 {
			self[s.Parent] -= s.durMS()
		}
	}
	return self
}

// layerSelfMS totals self time per layer over the queries' non-replay
// spans: the trace report's per-layer breakdown.
func (r *recorder) layerSelfMS() map[string]float64 {
	self := r.selfMS()
	out := map[string]float64{}
	for _, s := range r.spans {
		if s.Trace > 0 && !s.Replay {
			out[s.Layer] += self[s.ID]
		}
	}
	return out
}

// rootSelfMS is the mean self time of the queries' root spans: the part of
// a query's latency no stage accounts for.
func (r *recorder) rootSelfMS() float64 {
	self := r.selfMS()
	var sum float64
	n := 0
	for _, s := range r.spans {
		if s.Trace > 0 && s.Parent == 0 && !s.Replay {
			sum += self[s.ID]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// write dumps the spans as JSON lines, ordered by start time.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	sort.SliceStable(r.spans, func(i, j int) bool { return r.spans[i].StartMS < r.spans[j].StartMS })
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
