package smt

import (
	"context"
	"fmt"
	"time"

	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/sat"
)

// Context owns a SAT solver and the bookkeeping that maps SMT-level
// variables and terms onto SAT variables. A Context is not safe for
// concurrent use; AED runs one Context per destination prefix when
// solving in parallel.
type Context struct {
	solver *sat.Solver

	names map[int]string // boolean var index -> debug name
	next  int            // next boolean var index
	vars  map[int]sat.Var

	soft []softConstraint

	// tseitinCache memoizes the definitional literal per formula node
	// so shared subformulas (ubiquitous in the routing encoding, where
	// filter and forwarding formulas feed many constraints) are
	// encoded once.
	tseitinCache map[*Formula]sat.Lit

	// Structural hash-consing: the pointer-keyed tseitinCache only
	// collapses physically shared nodes, but the encoder rebuilds
	// structurally identical subformulas per env × router × peer
	// (adjacency sides, `preferred` chains, filter outcomes). internTab
	// interns encoded nodes by structural key so every such rebuild
	// reuses one definitional literal instead of emitting fresh CNF;
	// hashMemo caches the structural hash per node so DAG sharing keeps
	// hashing linear. See docs/PERFORMANCE.md §hash-consing.
	internOn     bool
	hashMemo     map[*Formula]uint64
	internTab    map[uint64][]internEntry
	internHits   int
	internMisses int

	// hardCount counts clauses added as hard constraints, used for
	// reporting problem sizes in benchmarks.
	hardCount int

	// Retractable assertions (see retract.go): each entry's selector is
	// assumed — positively while active, negatively once retracted — on
	// every SAT call made through solveTimed. selIdx maps selector
	// literals back to handles for RetractableCore; selAsm is the
	// per-solve assumption scratch buffer.
	retract []retractEntry
	selIdx  map[sat.Lit]Handle
	selAsm  []sat.Lit

	// totalOuts memoizes the soft-constraint relaxation and totalizer
	// (relaxSoft + weightedTotalizer) across Maximize calls, keyed on
	// the soft-set size: a live context re-solved after a retractable
	// rebind reuses the existing counting circuitry instead of emitting
	// a fresh totalizer per call. totalN is -1 until first built.
	totalN    int
	totalOuts []sat.Lit

	// reg, when set by Observe, receives solver metrics (decision/
	// conflict/restart counters, trail-depth samples, per-call solve
	// latencies). span, when set, parents the per-call solve spans.
	// rec is the registry's attached flight recorder (nil, a valid
	// no-op, when none is attached): restarts/reduceDB/arena-GC events
	// from the SAT layer and bound tightenings from the MaxSAT search
	// land in its ring.
	reg  *obs.Registry
	span *obs.Span
	rec  *obs.Recorder

	// ctx, when set by SetInterrupt, cancels in-flight SAT searches:
	// the solver polls ctx.Done at every conflict. interruptErr records
	// the cancellation cause once a solve call is actually interrupted.
	ctx          context.Context
	interruptErr error

	// portfolio, when Workers > 1, routes every SAT call made through
	// solveTimed to sat.SolvePortfolio: K configured solvers race on the
	// instance, the first winner cancels the rest, and the winner's
	// model/core is adopted so the MaxSAT searches above are none the
	// wiser. See SetPortfolio.
	portfolio sat.PortfolioOptions

	// portfolioWinner latches the winning configuration index of the
	// most recent portfolio race (-1, set by NewContext, until a race
	// has a winner); see PortfolioWinner.
	portfolioWinner int
}

type softConstraint struct {
	f      *Formula
	weight int
	label  string
}

// internEntry is one hash bucket member: an encoded formula node and
// its definitional literal.
type internEntry struct {
	f   *Formula
	lit sat.Lit
}

// NewContext returns a fresh solving context with structural
// hash-consing enabled.
func NewContext() *Context {
	return &Context{
		solver:       sat.New(),
		names:        make(map[int]string),
		vars:         make(map[int]sat.Var),
		tseitinCache: make(map[*Formula]sat.Lit),
		internOn:     true,
		hashMemo:     make(map[*Formula]uint64),
		internTab:    make(map[uint64][]internEntry),
		totalN:       -1,

		portfolioWinner: -1,
	}
}

// SetInterning toggles structural hash-consing of encoded formula
// nodes (default on). Disabling it restores the pointer-keyed-only
// Tseitin cache, which is how benchmarks measure the CNF shrink the
// interning provides; it must be toggled before constraints that
// should be affected are asserted.
func (c *Context) SetInterning(on bool) { c.internOn = on }

// InternStats reports how many Tseitin encodings were served from the
// structural intern table (hits) versus freshly emitted (misses).
func (c *Context) InternStats() (hits, misses int) {
	return c.internHits, c.internMisses
}

// BoolVar allocates a fresh boolean variable with a debug name and
// returns it as a formula.
func (c *Context) BoolVar(name string) *Formula {
	idx := c.next
	c.next++
	c.names[idx] = name
	c.vars[idx] = c.solver.NewVar()
	return &Formula{op: opVar, v: idx}
}

// Name returns the debug name of a variable formula, or "".
func (c *Context) Name(f *Formula) string {
	if f.op != opVar {
		return ""
	}
	return c.names[f.v]
}

// satVar returns the SAT variable backing a formula variable.
func (c *Context) satVar(f *Formula) sat.Var {
	v, ok := c.vars[f.v]
	if !ok {
		panic(fmt.Sprintf("smt: unknown variable b%d", f.v))
	}
	return v
}

// freshSatVar allocates an anonymous SAT variable for Tseitin
// definitions.
func (c *Context) freshSatVar() sat.Var { return c.solver.NewVar() }

// Assert adds f as a hard constraint. Top-level conjunctions are
// asserted conjunct-by-conjunct and top-level disjunctions become one
// clause, avoiding needless gate variables.
func (c *Context) Assert(f *Formula) {
	switch f.op {
	case opConst:
		if !f.b {
			v := c.freshSatVar()
			c.solver.AddClause(sat.PosLit(v))
			c.solver.AddClause(sat.NegLit(v))
			c.hardCount++
		}
		return
	case opAnd:
		for _, k := range f.kids {
			c.Assert(k)
		}
		return
	case opOr:
		clause := make([]sat.Lit, len(f.kids))
		for i, k := range f.kids {
			clause[i] = c.tseitin(k)
		}
		c.solver.AddClause(clause...)
		c.hardCount++
		return
	}
	c.solver.AddClause(c.tseitin(f))
	c.hardCount++
}

// AssertSoft registers f as a soft constraint with the given positive
// weight. Soft constraints are maximized by Maximize.
func (c *Context) AssertSoft(f *Formula, weight int, label string) {
	if weight <= 0 {
		panic("smt: soft constraint weight must be positive")
	}
	c.soft = append(c.soft, softConstraint{f: f, weight: weight, label: label})
}

// NumSoft returns the number of registered soft constraints.
func (c *Context) NumSoft() int { return len(c.soft) }

// HardClauses returns the number of asserted top-level hard constraints.
func (c *Context) HardClauses() int { return c.hardCount }

// NumSATVars exposes the size of the underlying SAT problem.
func (c *Context) NumSATVars() int { return c.solver.NumVars() }

// NumSATClauses exposes the number of CNF clauses held by the
// underlying solver (the post-Tseitin problem size; unit clauses are
// absorbed into root-level assignments and not counted).
func (c *Context) NumSATClauses() int { return c.solver.NumClauses() }

// Grow preallocates solver storage for n upcoming variables; the
// domain materializers (IntVarOf, NatVarOf, totalizer, AtMost) use it
// so their variable bursts extend the solver's per-variable slices in
// one step.
func (c *Context) Grow(n int) { c.solver.Grow(n) }

// Stats returns the accumulated SAT-solver statistics.
func (c *Context) Stats() sat.Stats { return c.solver.Stats }

// Observe streams this context's solver activity into reg and parents
// solver-call latency samples under span. It installs a sampling hook
// on the underlying SAT solver that runs on the solving goroutine, so
// the live (unsynchronized) sat.Stats counters are published through
// the registry's atomic instruments instead of being read across
// goroutines: every AED worker can share one registry. Passing a nil
// registry (the default) leaves the solver hook-free with zero
// overhead.
func (c *Context) Observe(reg *obs.Registry, span *obs.Span) {
	c.reg = reg
	c.span = span
	c.rec = reg.FlightRecorder()
	if reg == nil {
		c.solver.Progress = nil
		c.solver.OnEvent = nil
		return
	}
	if rec := c.rec; rec != nil {
		c.solver.OnEvent = func(ev sat.SolverEvent, a, b int64) {
			switch ev {
			case sat.EventRestart:
				rec.Record(obs.EvRestart, a, b)
			case sat.EventReduceDB:
				rec.Record(obs.EvReduceDB, a, b)
			case sat.EventArenaGC:
				rec.Record(obs.EvArenaGC, a, b)
			case sat.EventShareImport:
				rec.Record(obs.EvShareImport, a, b)
			}
		}
	} else {
		c.solver.OnEvent = nil
	}
	var last sat.Stats
	decisions := reg.Counter("solver.decisions")
	propagations := reg.Counter("solver.propagations")
	conflicts := reg.Counter("solver.conflicts")
	restarts := reg.Counter("solver.restarts")
	learned := reg.Counter("solver.learned")
	deleted := reg.Counter("solver.deleted")
	glue := reg.Counter("solver.glue_learned")
	lbdSum := reg.Counter("solver.lbd_sum")
	gcs := reg.Counter("solver.arena_gcs")
	sharedExp := reg.Counter("solver.shared_exported")
	sharedImp := reg.Counter("solver.shared_imported")
	sharedDrop := reg.Counter("solver.shared_dropped")
	trail := reg.Gauge("solver.trail_depth")
	learnts := reg.Gauge("solver.learnt_clauses")
	peak := reg.Gauge("solver.arena_peak_bytes")
	trailHist := reg.Histogram("solver.trail_depth_dist", obs.DepthBuckets)
	c.solver.Progress = func(p sat.ProgressSample) {
		d := p.Stats.Sub(last)
		last = p.Stats
		decisions.Add(d.Decisions)
		propagations.Add(d.Propagations)
		conflicts.Add(d.Conflicts)
		restarts.Add(d.Restarts)
		learned.Add(d.Learned)
		deleted.Add(d.Deleted)
		glue.Add(d.GlueLearned)
		lbdSum.Add(d.LBDSum)
		gcs.Add(d.ArenaGCs)
		sharedExp.Add(d.SharedExported)
		sharedImp.Add(d.SharedImported)
		sharedDrop.Add(d.SharedDropped)
		trail.Set(int64(p.TrailDepth))
		learnts.Set(int64(p.LearntClauses))
		peak.Set(p.Stats.PeakClauseBytes)
		trailHist.Observe(float64(p.TrailDepth))
	}
}

// SetInterrupt arranges for in-flight and future SAT searches on this
// context to stop promptly once ctx is canceled: the CDCL solver polls
// ctx.Done at every conflict. A context that can never be canceled
// (e.g. context.Background) uninstalls the hook. After an interrupted
// solve, Err returns the cancellation cause.
func (c *Context) SetInterrupt(ctx context.Context) {
	c.interruptErr = nil
	if ctx == nil || ctx.Done() == nil {
		c.ctx = nil
		c.solver.Stop = nil
		return
	}
	c.ctx = ctx
	done := ctx.Done()
	c.solver.Stop = func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// Err returns the cancellation cause (ctx.Err of the SetInterrupt
// context) once a solve call has been interrupted, and nil otherwise.
// An interrupted solve reports Unknown/no-model; Err distinguishes
// that from genuine UNSAT.
func (c *Context) Err() error { return c.interruptErr }

// SetPortfolio routes this context's SAT calls through a portfolio race
// of opts.Workers configured solvers (first winner cancels the rest,
// glue clauses shared unless opts.NoSharing). Workers <= 1 restores the
// plain single-solver path. The SetInterrupt Stop hook keeps working: it
// is consulted by every racing worker, so context cancellation stops the
// whole portfolio.
func (c *Context) SetPortfolio(opts sat.PortfolioOptions) { c.portfolio = opts }

// SetSolverConfig applies a CDCL configuration (decision seed, random
// polarity rate, VSIDS decay, restart policy) to the context's own
// solver — the single-solver analog of SetPortfolio, used to measure
// one portfolio member in isolation.
func (c *Context) SetSolverConfig(cfg sat.Config) { c.solver.SetConfig(cfg) }

// PortfolioWorkers reports the portfolio width currently routed through
// solveTimed (0 or 1 both mean the plain single-solver path).
func (c *Context) PortfolioWorkers() int { return c.portfolio.Workers }

// PortfolioWinner reports the winning configuration index of the most
// recent portfolio race run on this context, or -1 when no race has
// produced a winner — the provenance bit the service access log reports
// per instance.
func (c *Context) PortfolioWinner() int { return c.portfolioWinner }

// SetSpan makes sp the parent of the sat.solve spans of later SAT calls
// and returns the previous parent, so a caller can nest one search's
// calls under its own span and then restore the one Observe installed.
func (c *Context) SetSpan(sp *obs.Span) *obs.Span {
	prev := c.span
	c.span = sp
	return prev
}

// solveTimed is the instrumented path for every SAT Solve call made by
// the MaxSAT searches and satisfiability checks: it injects the
// retractable-assertion selector assumptions, records per-call latency
// into the registry when Observe has been installed, and latches the
// interrupt cause when the solver was stopped by a SetInterrupt
// context.
func (c *Context) solveTimed(assumptions ...sat.Lit) sat.Status {
	assumptions = c.withSelectors(assumptions)
	var st sat.Status
	if c.reg == nil {
		if c.portfolio.Workers > 1 {
			var ps sat.PortfolioStats
			st, ps = c.solver.SolvePortfolio(c.portfolio, assumptions...)
			if ps.Winner >= 0 {
				c.portfolioWinner = ps.Winner
			}
		} else {
			st = c.solver.Solve(assumptions...)
		}
	} else {
		start := time.Now()
		// One span per SAT call, parented under the current search's
		// span (see SetSpan): the sat-layer leaf of the request trace, so
		// aedtrace -request resolves a slow request down to the
		// individual CDCL searches (and their portfolio races) it paid
		// for.
		ssp := c.span.Child("sat.solve")
		if c.portfolio.Workers > 1 {
			var ps sat.PortfolioStats
			st, ps = c.solver.SolvePortfolio(c.portfolio, assumptions...)
			c.notePortfolio(ps)
			ssp.SetInt("portfolio", int64(c.portfolio.Workers))
			if ps.Winner >= 0 {
				ssp.SetInt("winner", int64(ps.Winner))
			}
		} else {
			st = c.solver.Solve(assumptions...)
		}
		ssp.SetStr("status", st.String())
		ssp.SetInt("assumptions", int64(len(assumptions)))
		ssp.End()
		c.reg.Counter("solver.calls").Add(1)
		c.reg.Histogram("solver.solve_ms", obs.LatencyBuckets).
			Observe(float64(time.Since(start).Microseconds()) / 1000)
	}
	if st == sat.Unknown && c.ctx != nil && c.solver.Interrupted() {
		if err := c.ctx.Err(); err != nil {
			c.interruptErr = err
		}
	}
	return st
}

// notePortfolio publishes one portfolio race's outcome to the registry:
// the race count, the winning configuration (by worker index, so the
// spread over `portfolio.winner.cfg*` shows which diversification pays),
// and the first-winner cancellation latency.
func (c *Context) notePortfolio(ps sat.PortfolioStats) {
	c.reg.Counter("portfolio.races").Add(1)
	if ps.Winner >= 0 {
		c.portfolioWinner = ps.Winner
		c.reg.Counter(fmt.Sprintf("portfolio.winner.cfg%d", ps.Winner)).Add(1)
		c.reg.Histogram("portfolio.cancel_latency_ms", obs.LatencyBuckets).
			Observe(float64(ps.CancelLatency.Microseconds()) / 1000)
	}
}

// tseitin returns a literal equisatisfiably representing f, memoized
// per formula node (pointer) and, when interning is on, per structural
// key: a rebuilt-but-identical subformula reuses the definitional
// literal of its first encoding and emits no new clauses.
func (c *Context) tseitin(f *Formula) sat.Lit {
	if l, ok := c.tseitinCache[f]; ok {
		return l
	}
	if c.internOn && f.op != opVar && f.op != opConst {
		h := c.structHash(f)
		for _, e := range c.internTab[h] {
			if structEq(e.f, f) {
				c.internHits++
				c.tseitinCache[f] = e.lit
				return e.lit
			}
		}
		l := c.tseitinUncached(f)
		c.internMisses++
		c.tseitinCache[f] = l
		c.internTab[h] = append(c.internTab[h], internEntry{f: f, lit: l})
		return l
	}
	l := c.tseitinUncached(f)
	c.tseitinCache[f] = l
	return l
}

// structHash computes a structural FNV-style hash of f, memoized per
// node so shared subtrees hash once.
func (c *Context) structHash(f *Formula) uint64 {
	if h, ok := c.hashMemo[f]; ok {
		return h
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		h ^= x
		h *= prime
	}
	mix(uint64(f.op) + 1)
	switch f.op {
	case opConst:
		if f.b {
			mix(1)
		} else {
			mix(2)
		}
	case opVar:
		mix(uint64(f.v) + 3)
	default:
		for _, k := range f.kids {
			mix(c.structHash(k))
		}
	}
	c.hashMemo[f] = h
	return h
}

// structEq reports structural equality of two formulas. Interned DAGs
// converge to shared pointers quickly, so the pointer fast path keeps
// repeated comparisons cheap.
func structEq(a, b *Formula) bool {
	if a == b {
		return true
	}
	if a.op != b.op || len(a.kids) != len(b.kids) {
		return false
	}
	switch a.op {
	case opConst:
		return a.b == b.b
	case opVar:
		return a.v == b.v
	}
	for i := range a.kids {
		if !structEq(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}

func (c *Context) tseitinUncached(f *Formula) sat.Lit {
	switch f.op {
	case opConst:
		// Encode a constant as a fixed fresh variable.
		v := c.freshSatVar()
		if f.b {
			c.solver.AddClause(sat.PosLit(v))
		} else {
			c.solver.AddClause(sat.NegLit(v))
		}
		return sat.PosLit(v)
	case opVar:
		return sat.PosLit(c.satVar(f))
	case opNot:
		return c.tseitin(f.kids[0]).Neg()
	case opAnd:
		out := sat.PosLit(c.freshSatVar())
		kidLits := make([]sat.Lit, len(f.kids))
		for i, k := range f.kids {
			kidLits[i] = c.tseitin(k)
		}
		// out -> each kid
		for _, kl := range kidLits {
			c.solver.AddClause(out.Neg(), kl)
		}
		// all kids -> out
		cl := make([]sat.Lit, 0, len(kidLits)+1)
		for _, kl := range kidLits {
			cl = append(cl, kl.Neg())
		}
		cl = append(cl, out)
		c.solver.AddClause(cl...)
		return out
	case opOr:
		out := sat.PosLit(c.freshSatVar())
		kidLits := make([]sat.Lit, len(f.kids))
		for i, k := range f.kids {
			kidLits[i] = c.tseitin(k)
		}
		// each kid -> out
		for _, kl := range kidLits {
			c.solver.AddClause(kl.Neg(), out)
		}
		// out -> some kid
		cl := make([]sat.Lit, 0, len(kidLits)+1)
		cl = append(cl, kidLits...)
		cl = append(cl, out.Neg())
		c.solver.AddClause(cl...)
		return out
	}
	panic("smt: unknown formula op")
}

// Model is a satisfying assignment for the SMT-level variables.
type Model struct {
	ctx    *Context
	assign []sat.Tribool
}

// Bool returns the model value of a boolean variable formula.
func (m *Model) Bool(f *Formula) bool {
	if f.op == opConst {
		return f.b
	}
	if f.op == opNot {
		return !m.Bool(f.kids[0])
	}
	if f.op != opVar {
		return m.Eval(f)
	}
	v := m.ctx.vars[f.v]
	return int(v) < len(m.assign) && m.assign[v] == sat.True
}

// Eval evaluates an arbitrary formula under the model.
func (m *Model) Eval(f *Formula) bool {
	switch f.op {
	case opConst:
		return f.b
	case opVar:
		return m.Bool(f)
	case opNot:
		return !m.Eval(f.kids[0])
	case opAnd:
		for _, k := range f.kids {
			if !m.Eval(k) {
				return false
			}
		}
		return true
	case opOr:
		for _, k := range f.kids {
			if m.Eval(k) {
				return true
			}
		}
		return false
	}
	panic("smt: unknown formula op")
}

// Int returns the model value of an integer variable.
func (m *Model) Int(iv *IntVar) int {
	for i, ind := range iv.indicators {
		if m.Bool(ind) {
			return iv.domain[i]
		}
	}
	// Unconstrained integer: default to the first domain value.
	return iv.domain[0]
}

// Solve checks satisfiability of the hard constraints. It returns the
// model if satisfiable, nil otherwise.
func (c *Context) Solve() *Model {
	if c.solveTimed() != sat.Sat {
		return nil
	}
	return &Model{ctx: c, assign: c.solver.Model()}
}

// SolveAssuming checks satisfiability under extra assumption formulas
// (each must be a variable or negated variable).
func (c *Context) SolveAssuming(assumptions ...*Formula) *Model {
	lits := make([]sat.Lit, len(assumptions))
	for i, a := range assumptions {
		lits[i] = c.mustLit(a)
	}
	if c.solveTimed(lits...) != sat.Sat {
		return nil
	}
	return &Model{ctx: c, assign: c.solver.Model()}
}

// UnsatCore checks satisfiability under the assumption formulas and,
// when unsatisfiable, returns the indices of a responsible subset of
// the assumptions (not necessarily minimal). It returns (nil, true)
// when satisfiable.
func (c *Context) UnsatCore(assumptions []*Formula) (core []int, sat_ bool) {
	lits := make([]sat.Lit, len(assumptions))
	byLit := make(map[sat.Lit]int, len(assumptions))
	for i, a := range assumptions {
		lits[i] = c.mustLit(a)
		byLit[lits[i]] = i
	}
	if c.solveTimed(lits...) == sat.Sat {
		return nil, true
	}
	// FinalCore holds the responsible assumption subset directly;
	// retractable-assertion selectors in it are simply not in byLit.
	for _, l := range c.solver.FinalCore() {
		if idx, ok := byLit[l]; ok {
			core = append(core, idx)
		}
	}
	return core, false
}

// MinimizeCore shrinks an unsat core by deletion: repeatedly drop an
// assumption and keep the removal if the rest remains unsatisfiable.
func (c *Context) MinimizeCore(assumptions []*Formula, core []int) []int {
	cur := append([]int(nil), core...)
	for i := 0; i < len(cur); {
		trial := make([]*Formula, 0, len(cur)-1)
		for j, idx := range cur {
			if j != i {
				trial = append(trial, assumptions[idx])
			}
		}
		if _, satisfiable := c.UnsatCore(trial); !satisfiable {
			cur = append(cur[:i], cur[i+1:]...)
			continue
		}
		i++
	}
	return cur
}

func (c *Context) mustLit(f *Formula) sat.Lit {
	switch f.op {
	case opVar:
		return sat.PosLit(c.satVar(f))
	case opNot:
		if f.kids[0].op == opVar {
			return sat.NegLit(c.satVar(f.kids[0]))
		}
	}
	return c.tseitin(f)
}
