package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"time"

	aed "github.com/aed-net/aed"
	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/encode"
	"github.com/aed-net/aed/internal/objective"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
	"github.com/aed-net/aed/internal/sat"
	"github.com/aed-net/aed/internal/simulate"
	"github.com/aed-net/aed/internal/smt"
	"github.com/aed-net/aed/internal/topology"
)

// setupProbes is how many fresh processes a cold run starts to time
// their first aed.Do on the pool's first input; setup_s is the median.
const setupProbes = 3

// probeEnv, set in a process's environment, turns the benchmark binary
// into a setup probe (see setupProbe).
const probeEnv = "PERFBENCH_SETUP_PROBE"

// probeResult is what a setup probe reports.
type probeResult struct {
	Seconds  float64       `json:"seconds"`
	Response *aed.Response `json:"response"`
	Error    string        `json:"error,omitempty"`
}

// setupProbe reads one request as JSON from in, times the process's
// first aed.Do on it and writes a probeResult to out.
func setupProbe(in io.Reader, out io.Writer) int {
	var req aed.Request
	if err := json.NewDecoder(in).Decode(&req); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup probe:", err)
		return 1
	}
	start := time.Now()
	resp, err := aed.Do(context.Background(), req)
	r := probeResult{Seconds: time.Since(start).Seconds(), Response: resp}
	if err != nil {
		r.Error = err.Error()
	}
	if err := json.NewEncoder(out).Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench setup probe:", err)
		return 1
	}
	return 0
}

// firstCalls times the first aed.Do of setupProbes fresh processes of
// the running binary on in, one after another, sampling the host's
// speed before each, and checks each response. An error means a probe
// could not be run; a failed check counts in t.
func firstCalls(chk *checker, in Input, sp *speedLog, t *tally) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(in.Req)
	if err != nil {
		return nil, err
	}
	var secs []float64
	for i := 0; i < setupProbes; i++ {
		if err := sp.sample(); err != nil {
			return nil, err
		}
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), probeEnv+"=1")
		cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(body), &stdout, &stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("setup probe: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		var r probeResult
		if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		var doErr error
		if r.Error != "" {
			doErr = errors.New(r.Error)
		}
		t.add(checkDo(chk, in, r.Response, doErr))
		secs = append(secs, r.Seconds)
	}
	return secs, nil
}

// coldOrder is the seed's order of the pool. A cold run cycles it and
// stops at the first cycle boundary after the measuring time, so every
// run solves each input equally often.
func coldOrder(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// runCold measures a closed loop with one caller over aed.Do.
func runCold(inputs []Input, chk *checker, seed int64, seconds time.Duration, calibBin string, env *envelope) (map[string]float64, tally, error) {
	ctx := context.Background()
	var t tally
	sp, err := startSpeedLog(calibBin)
	if err != nil {
		return nil, t, err
	}
	defer sp.stop()

	setup, err := firstCalls(chk, inputs[0], sp, &t)
	if err != nil {
		return nil, t, err
	}
	// One untimed call warms this process before the loop.
	resp, err := aed.Do(ctx, inputs[0].Req)
	t.add(checkDo(chk, inputs[0], resp, err))

	type op struct {
		in   Input
		resp *aed.Response
		err  error
	}
	var ops []op
	var lat, cpu []float64
	byInput := map[string][]float64{}
	order := coldOrder(len(inputs), seed)
	rt0 := readRuntime()
	start, spent0 := time.Now(), sp.spent
	for k := 0; k%len(order) != 0 || time.Since(start) < seconds; k++ {
		in := inputs[order[k%len(order)]]
		if err := sp.sample(); err != nil {
			return nil, t, err
		}
		c0, t0 := selfCPU(), time.Now()
		resp, err := aed.Do(ctx, in.Req)
		l := ms(time.Since(t0))
		lat = append(lat, l)
		byInput[in.Name] = append(byInput[in.Name], l)
		cpu = append(cpu, ms(selfCPU()-c0))
		ops = append(ops, op{in, resp, err})
	}
	wall := time.Since(start) - (sp.spent - spent0)
	if err := sp.sample(); err != nil {
		return nil, t, err
	}
	rt := readRuntime().sub(rt0)
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, t, err
	}

	var ok int
	for _, o := range ops {
		err := checkDo(chk, o.in, o.resp, o.err)
		t.add(err)
		if err == nil {
			ok++
		}
	}
	n := float64(len(ops))
	env.Samples["latency_ms"] = spreadOf(lat)
	env.Samples["cpu_ms"] = spreadOf(cpu)
	env.Samples["setup_s"] = spreadOf(setup)
	vals := map[string]float64{
		"latency_p50_ms":   perInput(byInput, 0.5),
		"latency_p95_ms":   perInput(byInput, 0.95),
		"throughput_per_s": float64(ok) / wall.Seconds(),
		"cpu_ms_per_op":    mean(cpu),
		"alloc_mb_per_op":  rt.AllocBytes / n / 1e6,
		"peak_rss_mb":      rss,
		"ok_frac":          float64(ok) / n,
		"setup_s":          median(setup),
	}
	sp.normalize(vals, closedLoopScaled, env)
	return vals, t, nil
}

// perInput is the q-quantile of each input's latencies, averaged over
// the pool. The pool's inputs differ in cost, so a quantile of the
// pooled sample would fall in the gaps between them and jump with
// every small shift; per input, the few samples are alike.
func perInput(byInput map[string][]float64, q float64) float64 {
	var s float64
	for _, xs := range byInput {
		s += quantile(xs, q)
	}
	return s / float64(len(byInput))
}

// checkDo turns an aed.Do outcome into a check verdict: an error
// (unsatisfiable, invalid) fails the operation.
func checkDo(chk *checker, in Input, resp *aed.Response, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	return chk.check(in, resp)
}

// tally counts checked operations and keeps the first failure.
type tally struct {
	Attempted, Failed int
	First             error
}

func (t *tally) add(err error) {
	t.Attempted++
	if err != nil {
		t.Failed++
		if t.First == nil {
			t.First = err
		}
	}
}

// counts are the per-operation work counts a traced replay reads from
// the layers it calls.
type counts struct {
	Deltas, Vars, Clauses   int64
	InternHits, InternMiss  int64
	SATCalls                int64
	Solver                  sat.Stats
	Hits, Instances         int64
	RebindTried, RebindUsed int64
}

func (c *counts) add(o counts) {
	c.Deltas += o.Deltas
	c.Vars += o.Vars
	c.Clauses += o.Clauses
	c.InternHits += o.InternHits
	c.InternMiss += o.InternMiss
	c.SATCalls += o.SATCalls
	c.Solver = c.Solver.Add(o.Solver)
	c.Hits += o.Hits
	c.Instances += o.Instances
	c.RebindTried += o.RebindTried
	c.RebindUsed += o.RebindUsed
}

// materialize is api.Request.Materialize taken apart into the layer
// parsers it calls, each under its own span; its option translation is
// the part the benchmark's workloads use (objective set, minimize
// lines, validation).
func materialize(t *tracer, req *api.Request) (*api.Problem, error) {
	var p api.Problem
	var err error
	t.begin("api.materialize")
	defer t.end()
	t.do("config.parse", func() { p.Net, err = config.ParseNetwork(req.Configs) })
	if err != nil {
		return nil, err
	}
	t.do("topology.parse", func() { p.Topo, err = topology.ParseText("request", req.Topology) })
	if err != nil {
		return nil, err
	}
	t.do("policy.parse", func() { p.Policies, err = policy.Parse(req.Policies) })
	if err != nil {
		return nil, err
	}
	if req.ObjectiveSet != "" {
		t.do("objective.parse", func() { p.Opts.Objectives, err = objective.Named(req.ObjectiveSet) })
		if err != nil {
			return nil, err
		}
	}
	p.Opts.MinimizeLines = req.Options.MinimizeLines
	p.Opts.SkipValidation = req.Options.SkipValidation
	return &p, nil
}

// replayCold replays one aed.Do sequentially through the layers in the
// order core uses — parse, group, then per destination encode,
// objectives, maximize and extract, then apply, validate and convert —
// and returns the response with the work counts it read.
func replayCold(t *tracer, in Input) (*api.Response, counts, error) {
	var c counts
	t.begin(rootName)
	defer t.end()
	req := in.Req
	p, err := materialize(t, &req)
	if err != nil {
		return nil, c, err
	}
	res, err := synthesize(t, p, &c)
	if err != nil {
		return nil, c, err
	}
	var resp *api.Response
	t.do("api.from_result", func() { resp = api.FromResult(res) })
	return resp, c, nil
}

// synthesizeSpan spans a replayed solve, the counterpart of one
// untraced core.SynthesizeContext call.
const synthesizeSpan = rootName + ".synthesize"

// synthesize is core.SynthesizeContext's split path with Sequential
// set, one exported call per span. The spans around the whole solve and
// around each destination are the replay's own (named under rootName):
// their self time is the benchmark's loop and bookkeeping, which the sum
// check charges as glue, not as core.
func synthesize(t *tracer, p *api.Problem, c *counts) (*core.Result, error) {
	t.begin(synthesizeSpan)
	defer t.end()
	ctx := context.Background()
	var groups map[prefix.Prefix][]policy.Policy
	var dests []prefix.Prefix
	ps := p.Policies
	t.do("policy.group", func() {
		ps = policy.SubdividePolicies(policy.Dedup(ps))
		groups = policy.GroupByDestination(ps)
		for d := range groups {
			dests = append(dests, d)
		}
		prefix.Sort(dests)
	})
	res := &core.Result{}
	for _, d := range dests {
		t.begin(rootName + ".destination")
		var e *encode.Encoder
		var err error
		t.do("encode.build", func() {
			e = encode.New(p.Net, p.Topo, d, p.Opts.Encode)
			err = e.EncodePolicies(groups[d])
		})
		if err != nil {
			t.end()
			return nil, fmt.Errorf("destination %s: %w", d, err)
		}
		var insts []objective.Instance
		t.do("objective.instantiate", func() {
			tree := config.Tree(p.Net)
			encode.AugmentTree(tree, e.Deltas())
			insts = objective.InstantiateAll(p.Opts.Objectives, tree)
		})
		t.do("encode.objectives", func() {
			e.AddObjectives(insts)
			if p.Opts.MinimizeLines {
				e.PenalizeDeltas(1)
			}
		})
		var mr *smt.MaxResult
		t.do("smt.maximize", func() {
			e.Ctx.SetInterrupt(ctx)
			mr = e.Ctx.Maximize(p.Opts.Strategy)
		})
		hits, miss := e.Ctx.InternStats()
		c.add(counts{
			Deltas: int64(len(e.Deltas())), Vars: int64(e.Ctx.NumSATVars()),
			Clauses: int64(e.Ctx.NumSATClauses()), InternHits: int64(hits), InternMiss: int64(miss),
			SATCalls: int64(mr.Iterations), Solver: e.Ctx.Stats(), Instances: 1,
		})
		if mr.Model == nil {
			t.end()
			return nil, fmt.Errorf("destination %s: unsatisfiable", d)
		}
		t.do("encode.extract", func() { res.Edits = append(res.Edits, encode.Extract(mr.Model, e.Deltas())...) })
		res.ObjectiveViolations += mr.ViolatedWeight
		res.Instances = append(res.Instances, core.InstanceStats{
			Destination: d, Policies: len(groups[d]), Sat: true, Iterations: mr.Iterations, PortfolioWinner: -1,
		})
		t.end()
	}
	t.do("encode.apply", func() {
		res.Updated = encode.Apply(p.Net, res.Edits)
		res.Diff = config.Diff(p.Net, res.Updated)
	})
	if !p.Opts.SkipValidation {
		t.do("simulate.validate", func() { res.Violations = simulate.New(res.Updated, p.Topo).CheckAll(ps) })
	}
	return res, nil
}

// traceCold replays each input of the pool through the layers and, on
// the same input, times core.SynthesizeContext untraced both
// sequentially (the base of the tracing overhead) and with the default
// per-destination parallelism (the base of the parallel speed-up).
func traceCold(inputs []Input, chk *checker, seed int64, seconds time.Duration, spansOut string, env *envelope) (map[string]float64, tally, error) {
	ctx := context.Background()
	var t tally
	tr := newTracer()
	var c counts
	var rt runtimeCounters
	var seqWall, parWall time.Duration
	order := coldOrder(len(inputs), seed)
	start := time.Now()
	k := 0
	for ; k%len(order) != 0 || time.Since(start) < seconds; k++ {
		in := inputs[order[k%len(order)]]
		tr.op = k
		r0 := readRuntime()
		resp, oc, err := replayCold(tr, in)
		rt = rt.add(readRuntime().sub(r0))
		c.add(oc)
		t.add(checkDo(chk, in, resp, err))

		p, err := in.Req.Materialize()
		if err != nil {
			return nil, t, err
		}
		for _, seq := range []bool{true, false} {
			opts := p.Opts
			opts.Sequential = seq
			s0 := time.Now()
			res, err := core.SynthesizeContext(ctx, p.Net, p.Topo, p.Policies, opts)
			if seq {
				seqWall += time.Since(s0)
			} else {
				parWall += time.Since(s0)
			}
			t.add(checkResult(chk, in, res, err))
		}
	}
	if spansOut != "" {
		if err := tr.write(spansOut); err != nil {
			return nil, t, err
		}
	}
	b := tr.breakdown()
	m, err := layerMetrics(tr, b, c, k, rt, env)
	if err != nil {
		return nil, t, err
	}
	m["core.dest_parallel_speedup"] = seqWall.Seconds() / parWall.Seconds()
	m["trace.overhead_ratio"] = b[synthesizeSpan].Total.Seconds() / seqWall.Seconds()
	for _, name := range []string{"core.hit_ms", "core.rebind_ms", "core.reencode_ms", "core.cache_hit_ratio",
		"core.rebind_ratio", "api.json_ms", "service.wire_queue_ms", "service.rejects", "loadgen.late_p95_ms"} {
		m[name] = 0
		env.NotMeasured = append(env.NotMeasured, name)
	}
	return m, t, nil
}

// checkResult checks a core.Result the way checkDo checks a response.
func checkResult(chk *checker, in Input, res *core.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	if u := res.Unsat(); u != nil {
		return fmt.Errorf("%s: %w", in.Name, u)
	}
	return chk.check(in, api.FromResult(res))
}

// sumTolerance bounds the replay time no layer span covers (the
// benchmark's own glue) as a share of the replay's wall time: the layer
// self times must add up to the wall time within it.
const sumTolerance = 0.02

// layerMetrics turns a traced replay of ops operations into the
// per-layer metrics every workload shares, and checks that the layer
// self times sum to the replay wall time.
func layerMetrics(tr *tracer, b map[string]selfStats, c counts, ops int, rt runtimeCounters, env *envelope) (map[string]float64, error) {
	n := float64(ops)
	per := func(d time.Duration) float64 { return ms(d) / n }
	enc := []selfStats{b["encode.build"], b["encode.objectives"]}
	var encTime time.Duration
	var encBytes, encObjs int64
	for _, s := range enc {
		encTime += s.Time
		encBytes += s.AllocBytes
		encObjs += s.Allocs
	}
	layers := byLayer(b)
	wall := tr.rootWall()
	var covered time.Duration
	env.Layers = map[string]float64{}
	for l, s := range layers {
		env.Layers[l] = per(s.Time)
		if l != rootName {
			covered += s.Time
		}
	}
	glue := 1 - covered.Seconds()/wall.Seconds()
	env.SumCheck = &sumCheck{LayerSumMS: per(covered), ReplayWallMS: per(wall), Tolerance: sumTolerance, Glue: glue}
	if glue > sumTolerance || glue < 0 {
		return nil, fmt.Errorf("layer self times sum to %.1f ms of %.1f ms replay wall time per op, outside the %.0f%% tolerance",
			per(covered), per(wall), sumTolerance*100)
	}
	ratio := func(a, b int64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	maximize := b["smt.maximize"]
	propsPerMS := 0.0
	if maximize.Time > 0 {
		propsPerMS = float64(c.Solver.Propagations) / ms(maximize.Time)
	}
	gcFrac := 0.0
	if rt.BusyCPU > 0 {
		gcFrac = rt.GCCPU / rt.BusyCPU
	}
	return map[string]float64{
		"encode.build_ms":          per(encTime),
		"encode.alloc_mb":          float64(encBytes) / n / 1e6,
		"encode.allocs_k":          float64(encObjs) / n / 1e3,
		"encode.deltas":            float64(c.Deltas) / n,
		"smt.cnf_vars":             float64(c.Vars) / n,
		"smt.cnf_clauses":          float64(c.Clauses) / n,
		"smt.intern_hit_ratio":     ratio(c.InternHits, c.InternMiss),
		"objective.instantiate_ms": per(b["objective.instantiate"].Time),
		"smt.maximize_ms":          per(maximize.Time),
		"smt.alloc_mb":             float64(maximize.AllocBytes) / n / 1e6,
		"smt.sat_calls":            float64(c.SATCalls) / n,
		"sat.conflicts":            float64(c.Solver.Conflicts) / n,
		"sat.decisions":            float64(c.Solver.Decisions) / n,
		"sat.propagations":         float64(c.Solver.Propagations) / n,
		"sat.restarts":             float64(c.Solver.Restarts) / n,
		"sat.props_per_ms":         propsPerMS,
		"sat.peak_clause_mb":       float64(c.Solver.PeakClauseBytes) / n / 1e6,
		"encode.extract_ms":        per(b["encode.extract"].Time),
		"encode.apply_ms":          per(b["encode.apply"].Time),
		"simulate.validate_ms":     per(b["simulate.validate"].Time),
		"runtime.gc_cycles_per_op": rt.GCCycles / n,
		"runtime.gc_cpu_frac":      gcFrac,
		"config.parse_ms":          per(b["config.parse"].Time),
		"policy.group_ms":          per(b["policy.group"].Time),
		"api.materialize_ms":       per(b["api.materialize"].Total),
		"api.from_result_ms":       per(b["api.from_result"].Time),
	}, nil
}
