package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/topology"
)

// Engine is an incremental synthesis session (exported as aed.Session):
// it holds a parsed network and topology and, across successive Solve
// calls, re-solves only the per-destination instances whose inputs
// changed. Each destination unit — its policy group, the relevant
// configuration subtree, the objectives, and the encoding options — is
// fingerprinted (see cache.go), and a dirty destination is re-solved
// through a three-tier ladder:
//
//	tier 1 — fingerprint identical: reuse the cached encode.Result,
//	         zero solver work;
//	tier 2 — only volatile router configuration moved (same shared
//	         inputs, same policy group, no objectives): flip the live
//	         instance's retractable bindings (encode.Rebind) and re-run
//	         the search on the warm solver, keeping its learned clauses
//	         and heuristic state;
//	tier 3 — anything else: re-encode and solve from scratch.
//
// So the operator loop of §9 (edit a line, re-run, repeat) pays for an
// edit-only change an assumption-based re-solve, not a rebuild.
//
// Split-mode instances are independent by construction (deltas that
// could affect other destinations' traffic are suppressed), which is
// what makes merging cached and fresh edits sound.
//
// An Engine is safe for concurrent use; Solve calls are serialized.
type Engine struct {
	mu   sync.Mutex
	net  *config.Network
	topo *topology.Topology
	opts Options

	cache map[prefix.Prefix]*cacheEntry
	// oneShot marks the throwaway engine behind SynthesizeContext,
	// which records one-shot telemetry names instead of session ones.
	oneShot bool
}

// cacheEntry is one destination's cached solve, including — unless
// Options.NoLiveInstances — the live encoder whose SMT context is kept
// warm for tier-2 re-solves.
type cacheEntry struct {
	fp       uint64
	shared   uint64 // sharedFingerprint component of fp
	groupFP  uint64 // policy-group component (see groupFingerprint)
	res      *encode.Result
	conflict []policy.Policy // Explain output for a cached unsat entry
	enc      *encode.Encoder // live instance; nil when retention is off
}

// NewEngine starts an incremental session over net and topo. The
// options apply to every Solve call; the zero value is the paper
// default, as with SynthesizeContext. Monolithic mode is not
// destination-cacheable — a monolithic Engine solves from scratch each
// call (every destination counts as a miss).
func NewEngine(net *config.Network, topo *topology.Topology, opts Options) *Engine {
	return &Engine{
		net:   net,
		topo:  topo,
		opts:  opts,
		cache: make(map[prefix.Prefix]*cacheEntry),
	}
}

// Network returns the session's current configuration snapshot.
func (s *Engine) Network() *config.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.net
}

// SetNetwork replaces the session's configuration snapshot — e.g. to
// adopt a previous Result.Updated, or after the operator edited a
// device. Cached results stay; the fingerprints decide per destination
// whether the change made them stale.
func (s *Engine) SetNetwork(net *config.Network) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.net = net
}

// Invalidate drops every cached per-destination result; the next Solve
// runs fully cold.
func (s *Engine) Invalidate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cache = make(map[prefix.Prefix]*cacheEntry)
}

// Solve synthesizes updates for the session's network against ps,
// reusing cached per-destination results where the fingerprint proves
// the instance's inputs are unchanged, and rebinding live instances
// where only volatile configuration moved (see the tier ladder on
// Engine). Cache activity is exported as session.cache.hits / .misses /
// .invalidations counters, tier-2 activity as session.rebind.resolves /
// .ineligible, and per-call latency lands in session.solve.warm_ms or
// .cold_ms depending on whether any hit occurred.
func (s *Engine) Solve(ctx context.Context, ps []policy.Policy) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.solve(ctx, ps)
}

// callStats counts one call's cache and tier-2 activity.
type callStats struct {
	hits, misses, invalidations int
	rebinds, ineligible         int64
}

// solve is the one synthesis pipeline behind SynthesizeContext and
// Solve: group the policies, solve them (jointly in monolithic mode,
// per destination through the tier ladder otherwise), apply and
// validate the merged edits, and record the call's telemetry.
func (s *Engine) solve(ctx context.Context, ps []policy.Policy) (*Result, error) {
	start := time.Now()
	tr := s.opts.tracer()
	rootName := "session.solve"
	if s.oneShot {
		rootName = "synthesize"
	}
	root := tr.StartCtx(ctx, rootName)
	defer root.End()

	gsp := root.Child("group")
	ps, groups, dests := groupDests(ps)
	gsp.SetInt("policies", int64(len(ps)))
	gsp.SetInt("destinations", int64(len(dests)))
	gsp.End()

	wd := s.opts.watchdog(tr)
	var res *Result
	var cs callStats
	var err error
	if s.opts.Monolithic {
		res, err = solveMonolithic(ctx, s.net, s.topo, groups, dests, s.opts, tr, root, wd)
		cs.misses = len(dests)
	} else {
		res, cs, err = s.solveDests(ctx, groups, dests, tr, root, wd)
	}
	if err != nil {
		return nil, err
	}

	applyAndValidate(s.net, s.topo, ps, s.opts, res, root)
	res.Duration = time.Since(start)

	root.SetBool("sat", res.unsat == nil)
	root.SetInt("decisions", res.Solver.Decisions)
	root.SetInt("conflicts", res.Solver.Conflicts)
	m := tr.Metrics()
	ms := float64(res.Duration.Microseconds()) / 1000
	if s.oneShot {
		m.Counter("synthesize.runs").Add(1)
		m.Histogram("synthesize.duration_ms", obs.LatencyBuckets).Observe(ms)
		return res, nil
	}
	root.SetInt("cache_hits", int64(cs.hits))
	root.SetInt("cache_misses", int64(cs.misses))
	root.SetInt("rebinds", cs.rebinds)
	m.Counter("session.cache.hits").Add(int64(cs.hits))
	m.Counter("session.cache.misses").Add(int64(cs.misses))
	m.Counter("session.cache.invalidations").Add(int64(cs.invalidations))
	m.Counter("session.rebind.resolves").Add(cs.rebinds)
	m.Counter("session.rebind.ineligible").Add(cs.ineligible)
	m.Histogram("session.solve_ms", obs.LatencyBuckets).Observe(ms)
	if cs.hits > 0 {
		m.Histogram("session.solve.warm_ms", obs.LatencyBuckets).Observe(ms)
	} else {
		m.Histogram("session.solve.cold_ms", obs.LatencyBuckets).Observe(ms)
	}
	return res, nil
}

// solveDests runs the per-destination tier ladder: fingerprint every
// destination, reuse the clean ones, re-solve the dirty ones (rebinding
// live instances where allowed), and merge the outcomes while updating
// the cache.
func (s *Engine) solveDests(ctx context.Context, groups map[prefix.Prefix][]policy.Policy, dests []prefix.Prefix,
	tr *obs.Tracer, root *obs.Span, wd *obs.Watchdog) (*Result, callStats, error) {

	var cs callStats
	ri, _ := obs.RequestFrom(ctx)

	// Fingerprint every destination unit and split clean from dirty.
	// Cache classification is also streamed into the flight recorder so
	// a live /recorder drain shows which destinations stayed warm.
	fsp := root.Child("fingerprint")
	rec := tr.Recorder()
	shared := sharedFingerprint(s.net, s.topo, s.opts)
	fps := make([]uint64, len(dests))
	groupFPs := make([]uint64, len(dests))
	results := make([]*encode.Result, len(dests))
	cached := make([]bool, len(dests))
	conflicts := make([][]policy.Policy, len(dests))
	liveable := make([]*cacheEntry, len(dests))
	encs := make([]*encode.Encoder, len(dests))
	rebound := make([]bool, len(dests))
	var dirty []int
	for i, d := range dests {
		fps[i] = destFingerprint(shared, s.net, d, groups[d], s.opts)
		groupFPs[i] = groupFingerprint(d, groups[d])
		if e, ok := s.cache[d]; ok {
			if e.fp == fps[i] {
				results[i] = e.res
				conflicts[i] = e.conflict
				cached[i] = true
				cs.hits++
				rec.RecordRequest(obs.EvCacheHit, d.String(), ri.ID, int64(fps[i]), 0)
				continue
			}
			// Dirty with a live instance: when the shared inputs and the
			// policy group are untouched, only router configuration
			// moved — a tier-2 rebind candidate. Objectives are excluded
			// because their value companions stay anchored at the
			// encode-time configuration (see encode.Rebind).
			if e.enc != nil && e.shared == shared && e.groupFP == groupFPs[i] &&
				len(s.opts.Objectives) == 0 {
				liveable[i] = e
			}
			cs.invalidations++
			rec.RecordRequest(obs.EvCacheInvalidate, d.String(), ri.ID, int64(fps[i]), int64(e.fp))
		}
		rec.RecordRequest(obs.EvCacheMiss, d.String(), ri.ID, int64(fps[i]), 0)
		dirty = append(dirty, i)
	}
	cs.misses = len(dirty)
	fsp.SetInt("hits", int64(cs.hits))
	fsp.SetInt("misses", int64(cs.misses))
	fsp.End()

	// Cost estimates for longest-expected-first dispatch: the
	// destination's last observed solve time when the session has one,
	// its last CNF size as a proxy otherwise, and the policy-group size
	// — the main driver of per-destination CNF size — on a fully cold
	// start. Mixed units only occur on the first warm call after new
	// destinations appear, where any history-first ordering is still
	// better than FIFO.
	est := make([]int64, len(dirty))
	for k, i := range dirty {
		if e, ok := s.cache[dests[i]]; ok && e.res != nil {
			if d := e.res.Duration; d > 0 {
				est[k] = int64(d)
				continue
			}
			if e.res.NumClauses > 0 {
				est[k] = int64(e.res.NumClauses)
				continue
			}
		}
		est[k] = int64(len(groups[dests[i]]))
	}

	// Re-solve only the dirty destinations: by rebinding the live
	// instance when the configuration delta allows it, from scratch
	// otherwise. Without retention a fresh encoder is dropped as soon
	// as its solve returns, so at most Workers encoders are live at
	// once.
	errs := make([]error, len(dests))
	var rebinds, ineligible atomic.Int64
	runInstances(len(dirty), s.opts, est, func(k int) {
		i := dirty[k]
		d := dests[i]
		if err := ctx.Err(); err != nil {
			// Canceled before this instance started: skip the encoding
			// work entirely.
			errs[i] = err
			return
		}
		if ent := liveable[i]; ent != nil {
			if r, ok := resolveLive(ctx, ent.enc, s.net, d, s.opts, tr, root, wd); ok {
				results[i], encs[i], rebound[i] = r, ent.enc, true
				rebinds.Add(1)
				return
			}
			ineligible.Add(1)
		}
		r, enc, err := solveInstance(ctx, s.net, s.topo, d, groups[d], s.opts, tr, root, wd)
		results[i], errs[i] = r, err
		if !s.opts.NoLiveInstances {
			encs[i] = enc
		}
	})
	cs.rebinds, cs.ineligible = rebinds.Load(), ineligible.Load()

	for _, i := range dirty {
		if errs[i] == nil && results[i] != nil && results[i].Err != nil {
			// An interrupted instance means the whole call was canceled;
			// report the context's error, not a partial result.
			return nil, cs, results[i].Err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, cs, err
	}
	for _, i := range dirty {
		if errs[i] != nil {
			return nil, cs, fmt.Errorf("destination %s: %w", dests[i], errs[i])
		}
	}

	// Merge cached and fresh results, updating the cache. SolveTime and
	// Solver count only work done in this call: cached instances are
	// free (their InstanceStats keep the original solve's counters,
	// flagged Cached), and rebound instances count only the incremental
	// search.
	res := &Result{}
	for i, d := range dests {
		r := results[i]
		is := instanceStats(d, len(groups[d]), r)
		is.Cached, is.Rebound = cached[i], rebound[i]
		if !cached[i] {
			if !r.Sat && s.opts.Explain {
				conflicts[i] = explainDest(s.net, s.topo, d, groups[d], s.opts)
			}
			s.cache[d] = &cacheEntry{
				fp: fps[i], shared: shared, groupFP: groupFPs[i],
				res: r, conflict: conflicts[i], enc: encs[i],
			}
			is.Slow = s.opts.markSlow(r.Duration)
			res.SolveTime += r.Duration
			res.Solver = res.Solver.Add(r.Stats)
		}
		res.Instances = append(res.Instances, is)
		if !r.Sat {
			res.setUnsat(d, conflicts[i])
			continue
		}
		res.Edits = append(res.Edits, r.Edits...)
		res.ObjectiveViolations += r.ViolatedWeight
	}
	return res, cs, nil
}

// resolveLive attempts a tier-2 re-solve: retarget the destination's
// live encoder at the session's current network by flipping its
// retractable bindings, then re-run the MaxSAT search on the warm
// solver. Returns ok=false — leaving the instance untouched — when the
// configuration delta is not rebindable, in which case the caller
// falls back to a full re-encode.
func resolveLive(ctx context.Context, enc *encode.Encoder, net *config.Network,
	d prefix.Prefix, opts Options, tr *obs.Tracer, root *obs.Span, wd *obs.Watchdog) (*encode.Result, bool) {

	swapped, ok := enc.Rebind(net)
	if !ok {
		return nil, false
	}
	dest := d.String()
	dsp := root.Child("destination")
	dsp.SetStr("dest", dest)
	dsp.SetBool("rebind", true)
	dsp.SetInt("bindings_swapped", int64(swapped))
	defer dsp.End()
	stop := wd.Watch(ctx, dest)
	defer stop()
	ri, _ := obs.RequestFrom(ctx)
	enc.Observe(dsp, tr.Metrics())
	rec := tr.Recorder()
	rec.RecordRequest(obs.EvSolveStart, dest, ri.ID, 0, 0)
	r := enc.ReSolveContext(ctx, opts.Strategy)
	rec.RecordRequest(obs.EvRebind, dest, ri.ID, int64(swapped), r.Duration.Milliseconds())
	var satBit int64
	if r.Sat {
		satBit = 1
	}
	rec.RecordRequest(obs.EvSolveEnd, dest, ri.ID, satBit, r.Duration.Milliseconds())
	return r, true
}
