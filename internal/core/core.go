// Package core is the AED engine: it orchestrates the full synthesis
// pipeline of the paper — group policies by destination (§8), build a
// symbolic sketch and policy constraints per group (§5–6), translate
// management objectives to soft constraints (§7), solve the MaxSMT
// instances (in parallel by default), merge the extracted edits, and
// validate the updated configurations with the concrete simulator.
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// Options configure a synthesis run. The zero value is the paper's
// fully optimized configuration (per-destination parallel solving,
// pruning, boolean rank metrics, linear-descent MaxSAT, simulator
// validation): every field is phrased so that false/zero selects the
// paper default, and DefaultOptions is a documented alias for
// Options{}.
type Options struct {
	// Objectives are the management objectives to maximize.
	Objectives []objective.Objective
	// MinimizeLines adds a unit-weight penalty per delta variable —
	// the exact min-lines objective (each changed line costs one).
	MinimizeLines bool
	// Sequential solves per-destination instances one at a time
	// instead of concurrently. The default (false) is the paper's
	// parallel per-destination solving (§8).
	Sequential bool
	// Monolithic disables per-destination splitting entirely and
	// solves one joint MaxSMT problem (the Fig. 14 baseline).
	Monolithic bool
	// Workers bounds solver goroutines (0 = GOMAXPROCS).
	Workers int
	// Strategy selects the MaxSAT search algorithm; the zero value is
	// smt.LinearDescent, the paper's choice.
	Strategy smt.Strategy
	// Encode tunes the underlying encoding (pruning, integer widths);
	// its zero value is the paper default too.
	Encode encode.Options
	// SkipValidation skips the simulator re-check of the result. The
	// default (false) validates and reports residual violations in
	// Result.Violations.
	SkipValidation bool
	// Explain computes, for each unsatisfiable destination, a minimal
	// conflicting policy subset (Result.Conflicts). Costs extra solver
	// calls; off by default.
	Explain bool
	// Tracer receives phase spans and solver metrics for the run. Nil
	// (the default) falls back to the process-wide tracer installed
	// with SetTracer, and disables telemetry at zero overhead when
	// that too is unset.
	Tracer *obs.Tracer
	// SlowSolveAfter arms the slow-solve watchdog: an instance solve
	// still running after this long produces an incident — a JSONL
	// record to IncidentWriter and a human-readable dump to stderr —
	// without aborting the solve, and the instance is flagged
	// InstanceStats.Slow once it completes. Zero (the default) disables
	// the watchdog. The aed CLI defaults this to half of -timeout when
	// only a timeout is given.
	SlowSolveAfter time.Duration
	// IncidentWriter, when non-nil, receives one JSON line per watchdog
	// incident (see obs.Incident for the schema).
	IncidentWriter io.Writer
	// NoLiveInstances stops a session Engine from retaining each
	// destination's live solver instance between Solve calls. The
	// default (false) keeps instances alive so that an edit-only
	// configuration change re-solves by flipping retractable bindings
	// on the warm solver (tier-2 in DESIGN.md) instead of re-encoding;
	// set it to trade that speed for the memory of the SMT contexts:
	// each destination's encoder is then dropped as soon as its solve
	// finishes. One-shot SynthesizeContext runs always set it.
	NoLiveInstances bool
}

// defaultTracer is the process-wide fallback used when Options.Tracer
// is nil, so CLIs like aedbench can observe every Synthesize call —
// including ones made deep inside benchmark drivers — without
// threading a tracer through each call site.
var defaultTracer atomic.Pointer[obs.Tracer]

// SetTracer installs (or, with nil, removes) the process-wide fallback
// tracer.
func SetTracer(t *obs.Tracer) { defaultTracer.Store(t) }

// tracer resolves the effective tracer for a run.
func (o Options) tracer() *obs.Tracer {
	if o.Tracer != nil {
		return o.Tracer
	}
	return defaultTracer.Load()
}

// watchdog builds the slow-solve watchdog for one Solve/Synthesize
// call (nil — a valid no-op — when SlowSolveAfter is unset). One
// watchdog is shared by all parallel instance solves of the call so
// incident output is serialized.
func (o Options) watchdog(tr *obs.Tracer) *obs.Watchdog {
	w := obs.NewWatchdog(o.SlowSolveAfter, tr)
	if w != nil {
		w.Incidents = o.IncidentWriter
		w.Dump = os.Stderr
	}
	return w
}

// markSlow flags instances whose solve outlived the watchdog
// threshold, which is what `aed -stats` renders as the slow column.
func (o Options) markSlow(d time.Duration) bool {
	return o.SlowSolveAfter > 0 && d >= o.SlowSolveAfter
}

// DefaultOptions returns the paper's fully optimized configuration.
// Since the Options redesign this is a documented alias for the zero
// value: DefaultOptions() == Options{}.
func DefaultOptions() Options { return Options{} }

// UnsatError reports that one or more per-destination instances were
// unsatisfiable: the requested policies conflict or are
// unimplementable on the network. It is exposed through
// (*Result).Unsat.
type UnsatError struct {
	// Destinations lists the unsatisfiable destination prefixes in
	// sorted order.
	Destinations []prefix.Prefix
	// Conflicts holds, per unsatisfiable destination, a minimal
	// mutually-unimplementable policy subset. Populated only when
	// Options.Explain is set.
	Conflicts map[prefix.Prefix][]policy.Policy
}

func (e *UnsatError) Error() string {
	var b strings.Builder
	b.WriteString("synthesis unsatisfiable for destinations:")
	for _, d := range e.Destinations {
		b.WriteByte(' ')
		b.WriteString(d.String())
	}
	return b.String()
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Updated is the synthesized network (nil when Unsat() is non-nil).
	Updated *config.Network
	// Edits are the merged configuration changes.
	Edits []encode.Edit
	// Diff summarizes the change w.r.t. the input snapshot.
	Diff *config.DiffStats
	// ObjectiveViolations counts violated soft-constraint weight
	// across instances.
	ObjectiveViolations int
	// Violations lists policies the updated network still violates
	// (empty in normal operation; populated only if the symbolic
	// model and the simulator disagree).
	Violations []simulate.Violation
	// Duration is the end-to-end synthesis time; SolveTime the sum of
	// the solve times of the instances solved in this call (cached ones
	// excluded), which exceeds the wall clock when instances run in
	// parallel.
	Duration  time.Duration
	SolveTime time.Duration
	// Instances describes each per-destination problem.
	Instances []InstanceStats
	// Solver is the network-wide total of the per-instance SAT-solver
	// counters: the field-wise sum over Instances[i].Solver. Session
	// solves sum only freshly solved instances (cached ones cost no
	// solver work in the current call).
	Solver sat.Stats

	// unsat is the structured unsatisfiability report; nil when every
	// instance was satisfiable.
	unsat *UnsatError
}

// Unsat returns the structured unsatisfiability report, or nil when
// every instance was satisfiable.
func (r *Result) Unsat() *UnsatError { return r.unsat }

// setUnsat records one unsatisfiable destination with its optional
// minimal conflict.
func (r *Result) setUnsat(d prefix.Prefix, conflict []policy.Policy) {
	if r.unsat == nil {
		r.unsat = &UnsatError{}
	}
	r.unsat.Destinations = append(r.unsat.Destinations, d)
	if len(conflict) > 0 {
		if r.unsat.Conflicts == nil {
			r.unsat.Conflicts = make(map[prefix.Prefix][]policy.Policy)
		}
		r.unsat.Conflicts[d] = conflict
	}
}

// InstanceStats reports one per-destination instance.
type InstanceStats struct {
	Destination prefix.Prefix
	Policies    int
	NumVars     int
	// NumClauses is the instance's post-Tseitin CNF clause count.
	NumClauses int
	NumDeltas  int
	Iterations int
	Duration   time.Duration
	Sat        bool
	// Cached marks an instance whose result was reused from a session
	// cache instead of being re-solved in this call; its Solver
	// counters describe the original solve.
	Cached bool
	// Rebound marks an instance re-solved on its live solver after an
	// edit-only configuration change: the session flipped retractable
	// bindings and re-ran the search instead of re-encoding, so its
	// Solver counters cover only the incremental work of this call.
	Rebound bool
	// Slow marks an instance whose solve outlived Options.SlowSolveAfter
	// (the slow-solve watchdog fired for it). Always false when the
	// watchdog is disabled.
	Slow bool
	// Solver holds the instance's cumulative SAT-solver counters
	// (decisions, conflicts, restarts, ...).
	Solver sat.Stats
	// Deprecated: nothing in this module sets or reads PortfolioWinner.
	// It reported which CDCL portfolio member won an instance's SAT race;
	// the portfolio is gone and every SAT call takes the one Solver.Solve
	// path. The field stays only because the separate perfbench module
	// still names it in a struct literal.
	PortfolioWinner int
}

// SynthesizeContext computes configuration updates for net on topo
// that satisfy ps and maximally satisfy the objectives, with
// cancellation: once ctx is canceled every in-flight CDCL search stops
// at its next conflict and the call returns ctx.Err().
//
// A one-shot synthesis is the first, all-miss call of a throwaway
// session: it runs the Engine's pipeline with live-instance retention
// off, since nothing outlives the call. It records its telemetry under
// the one-shot names (the synthesize span and synthesize.* metrics).
func SynthesizeContext(ctx context.Context, net *config.Network, topo *topology.Topology, ps []policy.Policy, opts Options) (*Result, error) {
	opts.NoLiveInstances = true
	e := NewEngine(net, topo, opts)
	e.oneShot = true
	return e.solve(ctx, ps)
}

// groupDests canonicalizes policies (dedup + isolation subdivision) and
// groups them per destination prefix, returning the destinations in
// sorted order.
func groupDests(ps []policy.Policy) ([]policy.Policy, map[prefix.Prefix][]policy.Policy, []prefix.Prefix) {
	ps = policy.SubdividePolicies(policy.Dedup(ps))
	groups := policy.GroupByDestination(ps)
	dests := make([]prefix.Prefix, 0, len(groups))
	for d := range groups {
		dests = append(dests, d)
	}
	prefix.Sort(dests)
	return ps, groups, dests
}

// applyAndValidate materializes a satisfiable result: apply the merged
// edits, diff against the input snapshot, and (unless skipped) re-check
// the updated network with the concrete simulator.
func applyAndValidate(net *config.Network, topo *topology.Topology, ps []policy.Policy, opts Options, res *Result, root *obs.Span) {
	if res.unsat != nil {
		return
	}
	asp := root.Child("apply")
	res.Updated = encode.Apply(net, res.Edits)
	res.Diff = config.Diff(net, res.Updated)
	asp.SetInt("edits", int64(len(res.Edits)))
	asp.End()
	if !opts.SkipValidation {
		vsp := root.Child("validate")
		sim := simulate.New(res.Updated, topo)
		res.Violations = sim.CheckAll(ps)
		vsp.SetInt("violations", int64(len(res.Violations)))
		vsp.End()
	}
}

// instantiateObjectives builds the desugared instances against the
// delta-augmented tree.
func instantiateObjectives(net *config.Network, objs []objective.Objective, deltas []*encode.Delta) []objective.Instance {
	tree := config.Tree(net)
	encode.AugmentTree(tree, deltas)
	return objective.InstantiateAll(objs, tree)
}

// solveMonolithic solves every destination group as one joint MaxSMT
// instance (the Fig. 14 baseline).
func solveMonolithic(ctx context.Context, net *config.Network, topo *topology.Topology,
	groups map[prefix.Prefix][]policy.Policy, dests []prefix.Prefix,
	opts Options, tr *obs.Tracer, root *obs.Span, wd *obs.Watchdog) (*Result, error) {

	msp := root.Child("monolithic")
	defer msp.End()
	stop := wd.Watch(ctx, "monolithic")
	defer stop()
	j := encode.NewJoint(net, topo, opts.Encode)
	j.Observe(msp, tr.Metrics())
	esp := msp.Child("encode")
	total := 0
	for _, d := range dests {
		if err := j.AddGroup(d, groups[d]); err != nil {
			return nil, err
		}
		total += len(groups[d])
	}
	j.AddObjectives(instantiateObjectives(net, opts.Objectives, j.Deltas()))
	if opts.MinimizeLines {
		j.PenalizeDeltas(1)
	}
	esp.SetInt("vars", int64(j.Ctx.NumSATVars()))
	esp.SetInt("deltas", int64(len(j.Deltas())))
	esp.End()
	r := j.SolveContext(ctx, opts.Strategy)
	if r.Err != nil {
		return nil, r.Err
	}
	is := instanceStats(prefix.Prefix{}, total, r)
	is.Slow = opts.markSlow(r.Duration)
	res := &Result{SolveTime: r.Duration, Instances: []InstanceStats{is}, Solver: r.Stats}
	if !r.Sat {
		for _, d := range dests {
			res.setUnsat(d, nil)
		}
		return res, nil
	}
	res.Edits = r.Edits
	res.ObjectiveViolations = r.ViolatedWeight
	return res, nil
}

// instanceStats reports one solved instance; the caller sets the flags
// that depend on how the instance was reached (Cached, Rebound, Slow).
func instanceStats(d prefix.Prefix, policies int, r *encode.Result) InstanceStats {
	return InstanceStats{
		Destination: d, Policies: policies,
		NumVars: r.NumVars, NumClauses: r.NumClauses, NumDeltas: r.NumDeltas,
		Iterations: r.Iterations, Duration: r.Duration, Sat: r.Sat,
		Solver: r.Stats,
	}
}

// solveInstance encodes and solves one destination group. It also
// returns the live encoder so a session can retain the instance and
// later re-solve it in place (see resolveLive in session.go).
func solveInstance(ctx context.Context, net *config.Network, topo *topology.Topology,
	d prefix.Prefix, group []policy.Policy, opts Options,
	tr *obs.Tracer, root *obs.Span, wd *obs.Watchdog) (*encode.Result, *encode.Encoder, error) {

	dest := d.String()
	dsp := root.Child("destination")
	dsp.SetStr("dest", dest)
	defer dsp.End()
	stop := wd.Watch(ctx, dest)
	defer stop()
	ri, _ := obs.RequestFrom(ctx)
	rec := tr.Recorder()
	rec.RecordRequest(obs.EvSolveStart, dest, ri.ID, 0, 0)
	e := encode.New(net, topo, d, opts.Encode)
	e.Observe(dsp, tr.Metrics())
	esp := dsp.Child("encode")
	if err := e.EncodePolicies(group); err != nil {
		esp.End()
		return nil, nil, err
	}
	e.AddObjectives(instantiateObjectives(net, opts.Objectives, e.Deltas()))
	if opts.MinimizeLines {
		e.PenalizeDeltas(1)
	}
	esp.SetInt("vars", int64(e.Ctx.NumSATVars()))
	esp.SetInt("deltas", int64(len(e.Deltas())))
	esp.End()
	r := e.SolveContext(ctx, opts.Strategy)
	var satBit int64
	if r.Sat {
		satBit = 1
	}
	rec.RecordRequest(obs.EvSolveEnd, dest, ri.ID, satBit, r.Duration.Milliseconds())
	return r, e, nil
}

// runInstances executes n index-addressed solve tasks, concurrently
// unless Sequential is set, bounded by Workers (0 = GOMAXPROCS).
//
// When est is non-nil it holds one relative cost estimate per task and
// the tasks are dispatched longest-expected-first: a fixed pool of
// worker goroutines pulls indices from a shared atomic cursor over the
// cost-sorted order (LPT list scheduling). Starting the predicted-
// hardest instance first bounds the makespan — the old FIFO semaphore
// could start the hardest destination last and leave every other worker
// idle while it ran alone. The sequential path ignores est and keeps
// the deterministic input order (total time is order-independent there).
//
// A panic in f on a worker goroutine stops the other workers from
// starting further tasks and is re-raised on the caller's goroutine once
// they have returned, with the worker's stack appended to its text, so
// a recover above the call (aedd's job boundary) contains it; a panic
// on a goroutine nobody recovers would kill the whole process.
func runInstances(n int, opts Options, est []int64, f func(i int)) {
	if opts.Sequential || n <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if est != nil {
		sort.SliceStable(order, func(a, b int) bool {
			return est[order[a]] > est[order[b]]
		})
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					next.Store(int64(n))
					panicOnce.Do(func() { panicked = fmt.Errorf("%v\n\n%s", p, debug.Stack()) })
				}
			}()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				f(order[k])
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// explainDest computes a minimal conflicting policy subset for an
// unsatisfiable destination (Options.Explain).
func explainDest(net *config.Network, topo *topology.Topology, d prefix.Prefix,
	group []policy.Policy, opts Options) []policy.Policy {
	explainer := encode.New(net, topo, d, opts.Encode)
	conflict, err := explainer.ExplainConflict(group)
	if err != nil {
		return nil
	}
	return conflict
}

// MinLinesOptions enables the exact min-lines objective on opts: one
// unit-weight penalty per delta variable, so each changed line counts
// one violation (the Fig. 9 min-lines configuration).
func MinLinesOptions(opts Options) Options {
	opts.MinimizeLines = true
	return opts
}

// SortEdits orders edits deterministically for stable reports.
func SortEdits(edits []encode.Edit) {
	sort.Slice(edits, func(i, j int) bool {
		if edits[i].Router != edits[j].Router {
			return edits[i].Router < edits[j].Router
		}
		if edits[i].Kind != edits[j].Kind {
			return edits[i].Kind < edits[j].Kind
		}
		return edits[i].String() < edits[j].String()
	})
}
