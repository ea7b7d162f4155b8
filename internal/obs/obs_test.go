package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("synthesize")
	enc := root.Child("encode")
	enc.SetInt("vars", 42)
	enc.End()
	solve := root.Child("solve")
	extract := solve.Child("extract")
	extract.End()
	solve.End()
	root.SetBool("sat", true)
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	// Spans are recorded at End, so children precede their parents.
	wantOrder := []string{"encode", "extract", "solve", "synthesize"}
	byName := make(map[string]SpanRecord)
	for i, sp := range spans {
		if sp.Name != wantOrder[i] {
			t.Errorf("span[%d] = %q, want %q", i, sp.Name, wantOrder[i])
		}
		byName[sp.Name] = sp
	}
	if byName["synthesize"].Parent != 0 {
		t.Error("root span must have parent 0")
	}
	if byName["encode"].Parent != byName["synthesize"].ID {
		t.Error("encode must be a child of synthesize")
	}
	if byName["extract"].Parent != byName["solve"].ID {
		t.Error("extract must be a child of solve")
	}
	if v, ok := byName["encode"].Attrs["vars"].(int64); !ok || v != 42 {
		t.Errorf("encode vars attr = %v", byName["encode"].Attrs["vars"])
	}
	if v, ok := byName["synthesize"].Attrs["sat"].(bool); !ok || !v {
		t.Errorf("synthesize sat attr = %v", byName["synthesize"].Attrs["sat"])
	}
}

func TestSpanDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer()
	sp := tr.Start("once")
	sp.End()
	sp.End()
	if n := len(tr.Spans()); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 2, 10, 99, 100.5, 1e9} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// v <= 1 → bucket 0; 1 < v <= 10 → bucket 1; ... ; v > 100 → overflow.
	want := []int64{2, 2, 1, 2}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Errorf("count = %d, want 7", s.Count)
	}
	wantSum := 0.5 + 1 + 2 + 10 + 99 + 100.5 + 1e9
	if s.Sum != wantSum {
		t.Errorf("sum = %v, want %v", s.Sum, wantSum)
	}
	if got := s.Mean(); got != wantSum/7 {
		t.Errorf("mean = %v", got)
	}
}

func TestHistogramUnsortedBoundsAreSorted(t *testing.T) {
	h := newHistogram([]float64{100, 1, 10})
	h.Observe(5)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Errorf("5 should land in the (1,10] bucket: %v", s.Counts)
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("c").Add(1)
				r.Gauge("g").Set(int64(w*each + i))
				r.Histogram("h", LatencyBuckets).Observe(float64(i % 50))
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["c"] != workers*each {
		t.Errorf("counter = %d, want %d", snap.Counters["c"], workers*each)
	}
	if snap.Histograms["h"].Count != workers*each {
		t.Errorf("histogram count = %d, want %d", snap.Histograms["h"].Count, workers*each)
	}
	if snap.Gauges["g"].Max != workers*each-1 {
		t.Errorf("gauge max = %d, want %d", snap.Gauges["g"].Max, workers*each-1)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("synthesize")
	enc := root.Child("encode")
	enc.SetStr("dest", "10.1.0.0/24")
	enc.SetInt("vars", 99)
	enc.SetDur("wait", 1500*time.Microsecond)
	enc.End()
	root.End()
	tr.Metrics().Counter("solver.decisions").Add(123)
	tr.Metrics().Gauge("solver.trail_depth").Set(17)
	tr.Metrics().Histogram("solver.solve_ms", []float64{1, 10}).Observe(3)

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var spans, counters, gauges, hists int
	byName := make(map[string]Event)
	for _, ev := range events {
		byName[ev.Type+"/"+ev.Name] = ev
		switch ev.Type {
		case "span":
			spans++
		case "counter":
			counters++
		case "gauge":
			gauges++
		case "histogram":
			hists++
		}
	}
	if spans != 2 || counters != 1 || gauges != 1 || hists != 1 {
		t.Fatalf("events: %d spans %d counters %d gauges %d hists", spans, counters, gauges, hists)
	}
	encEv := byName["span/encode"]
	if encEv.Parent != byName["span/synthesize"].ID {
		t.Error("encode span lost its parent in the round trip")
	}
	if encEv.Attrs["dest"] != "10.1.0.0/24" {
		t.Errorf("dest attr = %v", encEv.Attrs["dest"])
	}
	// JSON numbers decode as float64.
	if v, ok := encEv.Attrs["vars"].(float64); !ok || v != 99 {
		t.Errorf("vars attr = %v", encEv.Attrs["vars"])
	}
	if v, ok := encEv.Attrs["wait"].(float64); !ok || v != 1500 {
		t.Errorf("wait attr = %v µs", encEv.Attrs["wait"])
	}
	if ev := byName["counter/solver.decisions"]; ev.Value != 123 {
		t.Errorf("counter value = %d", ev.Value)
	}
	if ev := byName["gauge/solver.trail_depth"]; ev.Value != 17 || ev.Max != 17 {
		t.Errorf("gauge = %+v", ev)
	}
	h := byName["histogram/solver.solve_ms"]
	if h.Count != 1 || h.Sum != 3 || len(h.Counts) != 3 || h.Counts[1] != 1 {
		t.Errorf("histogram = %+v", h)
	}
}

func TestWriteSummary(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("synthesize")
	root.Child("validate").End()
	root.End()
	tr.Metrics().Counter("solver.conflicts").Add(7)
	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	out := buf.String()
	for _, want := range []string{"synthesize", "validate", "solver.conflicts", "7"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestWriteSummaryOpenParent checks that a summary written while the
// root span is still open shows its finished children as roots instead
// of dropping them, as Analyze does for a trace with a missing parent.
func TestWriteSummaryOpenParent(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("synthesize")
	root.Child("validate").End()
	var buf bytes.Buffer
	WriteSummary(&buf, tr)
	root.End()
	out := buf.String()
	if !strings.Contains(out, "\n  validate ") {
		t.Errorf("finished child of an open root missing from the summary:\n%s", out)
	}
	if strings.Contains(out, "synthesize") {
		t.Errorf("open root must not appear in the summary:\n%s", out)
	}
}

// TestNilTracerZeroAlloc is the disabled-telemetry fast-path
// guarantee: threading a nil tracer through the full span/metric API
// must not allocate.
func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(100, func() {
		root := tr.Start("synthesize")
		root.SetInt("policies", 3)
		root.SetStr("dest", "10.0.0.0/24")
		root.SetBool("sat", true)
		root.SetDur("wait", time.Millisecond)
		child := root.Child("solve")
		child.SetInt("conflicts", 9)
		child.End()
		root.End()
		reg := tr.Metrics()
		reg.Counter("solver.decisions").Add(1)
		reg.Gauge("solver.trail_depth").Set(5)
		reg.Histogram("solver.solve_ms", LatencyBuckets).Observe(1.5)
		_ = tr.Spans()
	})
	if allocs != 0 {
		t.Fatalf("nil tracer allocated %.1f times per run, want 0", allocs)
	}
}

// BenchmarkNilTracer measures the disabled path; run with -benchmem to
// confirm 0 allocs/op.
func BenchmarkNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("synthesize")
		sp.SetInt("n", int64(i))
		child := sp.Child("solve")
		child.End()
		sp.End()
		tr.Metrics().Counter("c").Add(1)
	}
}
