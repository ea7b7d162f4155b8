package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime/metrics"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// layers, in memory, with the heap bytes and objects allocated inside
// each span (runtime/metrics). It is single-goroutine: the traced
// replays call the layers sequentially, so the allocation counters
// move only for the span on top of the stack.
type tracer struct {
	t0     time.Time
	spans  []span
	stack  []int
	op     int
	sample []metrics.Sample
}

// span is one recorded interval. Parent is the index of the enclosing
// span, -1 for an operation's root; Op numbers the operation (one
// replayed request) the span belongs to.
type span struct {
	Name               string
	Parent, Op         int
	Start, End         time.Duration
	AllocBytes, Allocs int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), sample: []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}}
}

func (t *tracer) allocs() (bytes, objs int64) {
	metrics.Read(t.sample)
	return int64(t.sample[0].Value.Uint64()), int64(t.sample[1].Value.Uint64())
}

// begin opens a span as a child of the innermost open span. The
// counters are read before the clock, and end reads the clock before
// the counters, so the reads are charged to the parent's self time.
func (t *tracer) begin(name string) {
	b, o := t.allocs()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op,
		Start: time.Since(t.t0), AllocBytes: b, Allocs: o})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	now := time.Since(t.t0)
	b, o := t.allocs()
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[i]
	s.End = now
	s.AllocBytes = b - s.AllocBytes
	s.Allocs = o - s.Allocs
}

// do runs f inside a span.
func (t *tracer) do(name string, f func()) {
	t.begin(name)
	f()
	t.end()
}

// layerOf maps a span name ("encode.build") to its layer ("encode").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfStats is a span name's (or layer's) summed self time and self
// allocation — its spans' own figures minus what their children cover —
// and its summed inclusive time. The allocation counters advance a span
// of memory at a time, so tiny spans may read slightly negative.
type selfStats struct {
	Time, Total        time.Duration
	AllocBytes, Allocs int64
	Count              int
}

// rootName names the span each replayed operation runs under; its self
// time is the benchmark's own glue between layer calls.
const rootName = "replay"

// breakdown aggregates self time and self allocation per span name.
func (t *tracer) breakdown() map[string]selfStats {
	self := make([]selfStats, len(t.spans))
	for i, s := range t.spans {
		self[i].Time += s.End - s.Start
		self[i].AllocBytes += s.AllocBytes
		self[i].Allocs += s.Allocs
		if s.Parent >= 0 {
			p := &self[s.Parent]
			p.Time -= s.End - s.Start
			p.AllocBytes -= s.AllocBytes
			p.Allocs -= s.Allocs
		}
	}
	out := map[string]selfStats{}
	for i, s := range t.spans {
		a := out[s.Name]
		a.Time += self[i].Time
		a.Total += s.End - s.Start
		a.AllocBytes += self[i].AllocBytes
		a.Allocs += self[i].Allocs
		a.Count++
		out[s.Name] = a
	}
	return out
}

// byLayer folds a per-name breakdown into per-layer self figures
// (inclusive times do not add up across nested spans and are left 0).
func byLayer(b map[string]selfStats) map[string]selfStats {
	out := map[string]selfStats{}
	for name, s := range b {
		l := layerOf(name)
		a := out[l]
		a.Time += s.Time
		a.AllocBytes += s.AllocBytes
		a.Allocs += s.Allocs
		a.Count += s.Count
		out[l] = a
	}
	return out
}

// rootWall sums the wall time of every operation's root span.
func (t *tracer) rootWall() time.Duration {
	var w time.Duration
	for _, s := range t.spans {
		if s.Parent < 0 {
			w += s.End - s.Start
		}
	}
	return w
}

// write stores the recorded spans as JSON lines: name, operation,
// parent index (-1 for an operation's root), start and end in
// microseconds since the run began, and the heap bytes and objects
// allocated inside the span.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		err := enc.Encode(struct {
			Name       string `json:"name"`
			Op         int    `json:"op"`
			Parent     int    `json:"parent"`
			StartUS    int64  `json:"start_us"`
			EndUS      int64  `json:"end_us"`
			AllocBytes int64  `json:"alloc_bytes"`
			Allocs     int64  `json:"allocs"`
		}{s.Name, s.Op, s.Parent, s.Start.Microseconds(), s.End.Microseconds(), s.AllocBytes, s.Allocs})
		if err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
