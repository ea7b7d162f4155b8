package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies one flight-recorder event. The taxonomy covers
// the solver-internal state transitions that matter when diagnosing a
// stuck or pathological solve: CDCL restarts and clause-database
// maintenance, MaxSAT bound movement, and session-cache activity. See
// docs/OBSERVABILITY.md for the per-kind payload meanings.
type EventKind uint8

// Flight-recorder event kinds.
const (
	// EvNone is the zero kind; never recorded.
	EvNone EventKind = iota
	// EvRestart is a CDCL restart: A = cumulative restarts, B =
	// cumulative conflicts at restart time.
	EvRestart
	// EvReduceDB is a learned-clause database reduction: A = learned
	// clauses before the pass, B = clauses deleted by it.
	EvReduceDB
	// EvArenaGC is a compacting clause-arena collection: A = slab bytes
	// before, B = slab bytes after.
	EvArenaGC
	// EvBoundTighten is a MaxSAT bound improvement: A = new best cost
	// (violated soft weight), B = search iterations so far.
	EvBoundTighten
	// EvCoreRelaxed is a core-guided MaxSAT round: A = core size, B =
	// minimum weight relaxed.
	EvCoreRelaxed
	// EvCacheHit is a session destination served from the solve cache.
	EvCacheHit
	// EvCacheMiss is a session destination that had to be solved.
	EvCacheMiss
	// EvCacheInvalidate is a cached destination whose fingerprint
	// changed.
	EvCacheInvalidate
	// EvSolveStart marks the start of one per-destination solve.
	EvSolveStart
	// EvSolveEnd marks the end of one per-destination solve: A = 1 when
	// sat, 0 otherwise, B = duration in milliseconds.
	EvSolveEnd
	// EvIncident marks a slow-solve watchdog firing: A = threshold in
	// milliseconds.
	EvIncident
	// EvRebind marks a session re-solving a destination by flipping the
	// live instance's retractable bindings instead of re-encoding:
	// A = bindings swapped, B = re-solve duration in milliseconds.
	EvRebind
	evKindCount
)

var eventKindNames = [evKindCount]string{
	EvNone:            "none",
	EvRestart:         "restart",
	EvReduceDB:        "reduce_db",
	EvArenaGC:         "arena_gc",
	EvBoundTighten:    "bound_tighten",
	EvCoreRelaxed:     "core_relaxed",
	EvCacheHit:        "cache_hit",
	EvCacheMiss:       "cache_miss",
	EvCacheInvalidate: "cache_invalidate",
	EvSolveStart:      "solve_start",
	EvSolveEnd:        "solve_end",
	EvIncident:        "incident",
	EvRebind:          "rebind",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Recorder is a fixed-capacity flight recorder of timestamped solver
// events: a ring buffer in struct-of-arrays layout (parallel kind/
// time/payload columns, mebo-style) so that recording at steady state
// touches only preallocated slabs and allocates nothing (pinned by
// TestRecorderZeroAlloc / BenchmarkRecorderRecord). A nil *Recorder is
// a valid no-op recorder, mirroring the rest of the obs API.
//
// Recorder is safe for concurrent use: the parallel per-destination
// solver workers record into one shared ring. The append path takes
// one short mutex-protected critical section (a handful of slot
// stores); there is no per-event allocation or channel traffic.
type Recorder struct {
	mu sync.Mutex
	// Parallel columns; all have length == capacity after New.
	kinds  []EventKind
	times  []int64 // nanoseconds since the epoch field
	as     []int64
	bs     []int64
	labels []string
	reqs   []string // request IDs (see RecordRequest); "" = unattributed
	seq    uint64   // total events ever recorded; next write goes to seq % cap
	epoch  time.Time

	// dropped, when non-nil, is a registry counter bumped every time an
	// unread event is overwritten (wired by Registry.SetFlightRecorder as
	// "recorder.dropped"). Counter.Add is an atomic add, so the hot path
	// stays allocation-free.
	dropped *Counter
}

// DefaultRecorderCapacity is the ring size used when a non-positive
// capacity is requested.
const DefaultRecorderCapacity = 4096

// NewRecorder returns a flight recorder holding the last capacity
// events (DefaultRecorderCapacity when capacity <= 0).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	return &Recorder{
		kinds:  make([]EventKind, capacity),
		times:  make([]int64, capacity),
		as:     make([]int64, capacity),
		bs:     make([]int64, capacity),
		labels: make([]string, capacity),
		reqs:   make([]string, capacity),
		epoch:  time.Now(),
	}
}

// Record appends an unlabeled event. Allocation-free.
func (r *Recorder) Record(kind EventKind, a, b int64) {
	r.RecordLabeled(kind, "", a, b)
}

// RecordLabeled appends an event with a label (e.g. a destination
// prefix). The label string itself is stored by reference; passing an
// already-materialized string keeps the append path allocation-free.
func (r *Recorder) RecordLabeled(kind EventKind, label string, a, b int64) {
	r.RecordRequest(kind, label, "", a, b)
}

// RecordRequest appends a labeled event attributed to a request ID
// (the value WithRequest carries; "" records unattributed, identical to
// RecordLabeled). Like the label, the ID is stored by reference, so the
// append path stays allocation-free.
func (r *Recorder) RecordRequest(kind EventKind, label, req string, a, b int64) {
	if r == nil {
		return
	}
	now := time.Now()
	r.mu.Lock()
	if r.seq >= uint64(len(r.kinds)) {
		r.dropped.Add(1)
	}
	i := r.seq % uint64(len(r.kinds))
	r.kinds[i] = kind
	r.times[i] = now.Sub(r.epoch).Nanoseconds()
	r.as[i] = a
	r.bs[i] = b
	r.labels[i] = label
	r.reqs[i] = req
	r.seq++
	r.mu.Unlock()
}

// RecorderEvent is one drained flight-recorder event in plain-struct
// form (the array-of-structs view handed to sinks and the debug
// endpoint).
type RecorderEvent struct {
	// Seq is the event's global sequence number (0-based, monotone).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock time the event was recorded.
	Time time.Time `json:"time"`
	// Kind is the event kind name (see EventKind).
	Kind string `json:"kind"`
	// Label is the optional event label (destination prefix etc.).
	Label string `json:"label,omitempty"`
	// Req is the request ID the event is attributed to (RecordRequest);
	// empty for unattributed events.
	Req string `json:"req,omitempty"`
	// A and B are the kind-specific payloads.
	A int64 `json:"a"`
	B int64 `json:"b"`
}

// Events returns the retained events, oldest first. Safe to call while
// workers are still recording.
func (r *Recorder) Events() []RecorderEvent {
	if r == nil {
		return nil
	}
	out, _ := r.EventsSinceAppend(0, make([]RecorderEvent, 0, r.Len()))
	return out
}

// EventsAppend appends the retained events to dst, oldest first, and
// returns the extended slice. Allocation-free when dst has capacity —
// the snapshot variant for periodic pollers (pinned by
// BenchmarkRecorderEventsAppend).
func (r *Recorder) EventsAppend(dst []RecorderEvent) []RecorderEvent {
	dst, _ = r.EventsSinceAppend(0, dst)
	return dst
}

// EventsSinceAppend appends the retained events with Seq >= min to
// dst, oldest first, and returns the extended slice plus the next
// sequence number (one past the newest retained event; pass it back as
// min to drain incrementally). Events older than min that have already
// been overwritten are silently gone — Dropped() and the
// recorder.dropped counter account for them. Allocation-free when dst
// has capacity.
func (r *Recorder) EventsSinceAppend(min uint64, dst []RecorderEvent) ([]RecorderEvent, uint64) {
	if r == nil {
		return dst, min
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	capacity := uint64(len(r.kinds))
	n := r.seq
	start := uint64(0)
	if n > capacity {
		start = n - capacity
	}
	if min > start {
		start = min
	}
	for s := start; s < n; s++ {
		i := s % capacity
		dst = append(dst, RecorderEvent{
			Seq:   s,
			Time:  r.epoch.Add(time.Duration(r.times[i])),
			Kind:  r.kinds[i].String(),
			Label: r.labels[i],
			Req:   r.reqs[i],
			A:     r.as[i],
			B:     r.bs[i],
		})
	}
	return dst, n
}

// Len returns the number of currently retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq > uint64(len(r.kinds)) {
		return len(r.kinds)
	}
	return int(r.seq)
}

// Dropped returns how many events have been overwritten by newer ones.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq > uint64(len(r.kinds)) {
		return r.seq - uint64(len(r.kinds))
	}
	return 0
}

// Cap returns the ring capacity (0 for a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.kinds)
}

// recorderRef is the shared attachment point: the registry travels
// through every layer of the pipeline (smt.Context.Observe, the encode
// instances, the session engine), so hanging the recorder off it lets
// each layer find the ring without new plumbing.
type recorderRef struct {
	rec atomic.Pointer[Recorder]
}

// SetFlightRecorder attaches rec to the registry (nil detaches). Any
// layer holding the registry can then feed the ring. Attaching also
// wires the registry's "recorder.dropped" counter into the ring, so
// overwritten events are visible in /metrics and exported traces.
func (r *Registry) SetFlightRecorder(rec *Recorder) {
	if r == nil {
		return
	}
	if rec != nil {
		rec.setDroppedCounter(r.Counter("recorder.dropped"))
	}
	r.recorder.rec.Store(rec)
}

// setDroppedCounter wires the overwrite-accounting counter.
func (r *Recorder) setDroppedCounter(c *Counter) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dropped = c
	r.mu.Unlock()
}

// FlightRecorder returns the attached recorder, or nil (a valid no-op
// recorder) when none is attached or the registry is nil.
func (r *Registry) FlightRecorder() *Recorder {
	if r == nil {
		return nil
	}
	return r.recorder.rec.Load()
}

// SetRecorder attaches a flight recorder to the tracer's registry.
func (t *Tracer) SetRecorder(rec *Recorder) {
	if t == nil {
		return
	}
	t.metrics.SetFlightRecorder(rec)
}

// Recorder returns the tracer's attached flight recorder (nil, a valid
// no-op recorder, when unset or for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.metrics.FlightRecorder()
}
