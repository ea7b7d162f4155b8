package core

import (
	"bytes"
	"context"
	"testing"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/sat"
)

// TestParallelTelemetryRace is the race regression for concurrent
// telemetry: multiple per-destination solver goroutines stream
// progress samples and spans into one shared tracer. Run under
// `go test -race ./internal/core/...` (the Makefile check target) it
// fails if sat.Stats snapshots or registry updates ever race.
func TestParallelTelemetryRace(t *testing.T) {
	net, topo := leafSpineNet(t, 3, 2)
	ps, _ := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
reach 10.1.0.0/24 -> 10.2.0.0/24
`)
	tr := obs.NewTracer()
	opts := DefaultOptions() // parallel per-destination solving is the default
	opts.Objectives = minDevices(t)
	opts.Tracer = tr
	res, err := SynthesizeContext(context.Background(), net, topo, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil {
		t.Fatalf("unsat: %v", res.Unsat())
	}
	if len(res.Instances) < 2 {
		t.Fatalf("race test needs >1 destination, got %d", len(res.Instances))
	}

	// Per-destination stats must sum to the network-wide totals.
	var sum sat.Stats
	for _, is := range res.Instances {
		if is.Solver.SolveCalls == 0 {
			t.Errorf("instance %s recorded no solver calls", is.Destination)
		}
		sum = sum.Add(is.Solver)
	}
	if sum != res.Solver {
		t.Errorf("instance stats sum %+v != network total %+v", sum, res.Solver)
	}

	// The span tree must cover the pipeline phases, with one
	// destination/encode/solve chain per instance.
	counts := make(map[string]int)
	for _, sp := range tr.Spans() {
		counts[sp.Name]++
	}
	for _, phase := range []string{"synthesize", "group", "apply", "validate"} {
		if counts[phase] != 1 {
			t.Errorf("span %q appeared %d times, want 1", phase, counts[phase])
		}
	}
	for _, phase := range []string{"destination", "encode", "solve"} {
		if counts[phase] != len(res.Instances) {
			t.Errorf("span %q appeared %d times, want %d", phase, counts[phase], len(res.Instances))
		}
	}

	// The shared registry saw every worker's counters: the hook-fed
	// decision total must match the per-instance snapshots' sum.
	snap := tr.Metrics().Snapshot()
	if got := snap.Counters["solver.decisions"]; got != sum.Decisions {
		t.Errorf("registry decisions = %d, want %d", got, sum.Decisions)
	}
	if got := snap.Counters["solver.conflicts"]; got != sum.Conflicts {
		t.Errorf("registry conflicts = %d, want %d", got, sum.Conflicts)
	}
	if snap.Counters["solver.calls"] == 0 {
		t.Error("no solver call latencies recorded")
	}

	// And the trace must survive a JSONL round trip.
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("empty trace")
	}
}

// TestMonolithicTelemetry checks the joint path records its stats and
// spans too.
func TestMonolithicTelemetry(t *testing.T) {
	net, topo := leafSpineNet(t, 2, 1)
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\nreach 10.1.0.0/24 -> 10.0.0.0/24\n")
	tr := obs.NewTracer()
	opts := DefaultOptions()
	opts.Monolithic = true
	opts.Objectives = minDevices(t)
	opts.Tracer = tr
	res, err := SynthesizeContext(context.Background(), net, topo, ps, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unsat() != nil {
		t.Fatal("unsat")
	}
	if res.Solver.SolveCalls == 0 || res.Solver != res.Instances[0].Solver {
		t.Errorf("joint stats not aggregated: %+v", res.Solver)
	}
	counts := make(map[string]int)
	for _, sp := range tr.Spans() {
		counts[sp.Name]++
	}
	for _, phase := range []string{"synthesize", "monolithic", "encode", "solve", "maxsat", "extract"} {
		if counts[phase] == 0 {
			t.Errorf("missing span %q (got %v)", phase, counts)
		}
	}
}

// TestDefaultTracerFallback checks the process-wide tracer installed
// with SetTracer observes runs whose Options carry no tracer.
func TestDefaultTracerFallback(t *testing.T) {
	tr := obs.NewTracer()
	SetTracer(tr)
	defer SetTracer(nil)
	net, topo := leafSpineNet(t, 2, 1)
	ps, _ := policy.Parse("block 10.0.0.0/24 -> 10.1.0.0/24\n")
	if _, err := SynthesizeContext(context.Background(), net, topo, ps, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(tr.Spans()) == 0 {
		t.Fatal("default tracer saw no spans")
	}
	if tr.Metrics().Snapshot().Counters["synthesize.runs"] != 1 {
		t.Error("synthesize.runs counter not recorded")
	}
}

// checkSpanNesting asserts the span tree's structural invariants on a
// finished trace: every span's parent is in the trace, every child lies
// inside its parent's interval, and every SAT call nests under the
// MaxSAT search that made it. It returns the span count per name.
func checkSpanNesting(t *testing.T, tr *obs.Tracer) map[string]int {
	t.Helper()
	spans := tr.Spans()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	counts := make(map[string]int)
	for _, sp := range spans {
		counts[sp.Name]++
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		if !ok {
			t.Errorf("span %s: parent %d not in the trace", sp.Name, sp.Parent)
			continue
		}
		end, pend := sp.Start.Add(sp.Duration), p.Start.Add(p.Duration)
		if sp.Start.Before(p.Start) || end.After(pend) {
			t.Errorf("span %s [%v, %v] lies outside its parent %s [%v, %v]",
				sp.Name, sp.Start, end, p.Name, p.Start, pend)
		}
		if sp.Name == "sat.solve" && p.Name != "maxsat" {
			t.Errorf("sat.solve parented to %s, want maxsat", p.Name)
		}
	}
	if counts["sat.solve"] == 0 {
		t.Error("trace has no sat.solve spans")
	}
	return counts
}

// TestSpanNesting checks the nesting invariants on real traced runs:
// a parallel one-shot synthesis, a monolithic one, and a session whose
// second call re-solves a destination on its live instance.
func TestSpanNesting(t *testing.T) {
	ps, _ := policy.Parse(`block 10.0.0.0/24 -> 10.1.0.0/24
block 10.2.0.0/24 -> 10.0.0.0/24
reach 10.1.0.0/24 -> 10.2.0.0/24
`)
	for _, mono := range []bool{false, true} {
		net, topo := leafSpineNet(t, 3, 2)
		tr := obs.NewTracer()
		opts := DefaultOptions()
		opts.Objectives = minDevices(t)
		opts.Monolithic = mono
		opts.Tracer = tr
		if _, err := SynthesizeContext(context.Background(), net, topo, ps, opts); err != nil {
			t.Fatal(err)
		}
		counts := checkSpanNesting(t, tr)
		if counts["synthesize"] != 1 || counts["maxsat"] == 0 {
			t.Errorf("monolithic=%v: span counts %v", mono, counts)
		}
	}

	eng, rps, tr := rebindFixture(t, DefaultOptions())
	ctx := context.Background()
	if _, err := eng.Solve(ctx, rps); err != nil {
		t.Fatal(err)
	}
	eng.SetNetwork(editLocalPref(eng, 120))
	if _, err := eng.Solve(ctx, rps); err != nil {
		t.Fatal(err)
	}
	if resolves, _ := rebindCounters(tr); resolves != 1 {
		t.Fatalf("rebind resolves = %d, want 1", resolves)
	}
	checkSpanNesting(t, tr)
}
