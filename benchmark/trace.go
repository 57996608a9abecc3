package main

import (
	"sync"
	"time"
)

// span is one traced interval. Spans of one solve share Solve; Parent is
// the ID of the span that caused this one (0 for a round).
//
// A solve on an engine with W workers has W lanes, and the time inside it
// is counted in lane-time: the solve and the engine span below it account
// for (End-Start)*Lanes. A span aggregated from many short calls
// (operators.eval: one span per solve, not one per call) carries the
// summed duration of those calls, over all lanes, in BusyNs instead.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Solve   int    `json:"solve,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Lanes   int    `json:"lanes,omitempty"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	Calls   int64  `json:"calls,omitempty"`
	Comps   int64  `json:"comps,omitempty"`
}

func (s span) lanes() int64 {
	if s.Lanes < 1 {
		return 1
	}
	return int64(s.Lanes)
}

// cover is the lane-time the span accounts for.
func (s span) cover() int64 {
	if s.BusyNs > 0 {
		return s.BusyNs
	}
	return (s.EndNs - s.StartNs) * s.lanes()
}

// selfTimes maps each span ID to the span's self time: its cover minus the
// part its children cover. A child's interval takes up every lane of its
// parent; an aggregated child takes up its BusyNs.
func selfTimes(spans []span) map[int]int64 {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.cover()
		if p, ok := byID[s.Parent]; ok {
			if s.BusyNs > 0 {
				self[p.ID] -= s.BusyNs
			} else {
				self[p.ID] -= (s.EndNs - s.StartNs) * p.lanes()
			}
		}
	}
	return self
}

// selfByName sums self time over the spans of each name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// tracer keeps the spans of a traced pass in memory; they are written out
// when the benchmark ends.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	solve int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// add records s under a fresh ID and returns the ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// nextSolve returns a fresh solve identifier.
func (t *tracer) nextSolve() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.solve++
	return t.solve
}

// end closes the span id at time at (round and set-up spans are opened
// before their children exist).
func (t *tracer) end(id int, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = t.ns(at)
}
