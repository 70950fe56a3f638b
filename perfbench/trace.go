package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for an operation's root span
	Op     int    `json:"op"`     // operation the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	nextOp int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// op allocates a fresh operation ID.
func (t *tracer) op() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.nextOp
}

// begin opens a span and returns its ID.
func (t *tracer) begin(op, parent int, name string) int {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	return time.Duration(now - t.spans[id].Start)
}

// record adds a closed span measured elsewhere, such as a layer replayed
// for a request that was timed over HTTP.
func (t *tracer) record(op, parent int, name string, start time.Time, d time.Duration) int {
	s := start.Sub(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s, End: s + d.Nanoseconds()})
	return id
}

// selfTimes returns every span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, c := range spans {
		if c.Parent < 0 {
			continue
		}
		p := spans[c.Parent]
		if ov := min(c.End, p.End) - max(c.Start, p.Start); ov > 0 {
			self[c.Parent] -= ov
		}
	}
	return self
}

// layer summarises the spans of one name.
type layer struct {
	selfMs  []float64 // self time per call, ms
	totalNs int64
}

// layers groups self times by span name, over spans accepted by keep.
func (t *tracer) layers(keep func(span) bool) map[string]*layer {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	out := make(map[string]*layer)
	for i, s := range t.spans {
		if s.End < 0 || !keep(s) {
			continue
		}
		l := out[s.Name]
		if l == nil {
			l = &layer{}
			out[s.Name] = l
		}
		l.selfMs = append(l.selfMs, float64(self[i])/1e6)
		l.totalNs += self[i]
	}
	return out
}

// setLayer reports a layer's median self time per call as <name>_ms and
// its share of wall as <name>_share.
func setLayer(r *report, name string, l *layer, wall time.Duration) {
	if l == nil || len(l.selfMs) == 0 {
		return
	}
	r.set(name+"_ms", median(l.selfMs), "ms", len(l.selfMs), "median self time per call")
	r.set(name+"_share", 100*float64(l.totalNs)/float64(wall.Nanoseconds()), "%", len(l.selfMs), "share of traced wall")
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
