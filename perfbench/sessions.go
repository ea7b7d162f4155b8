package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	aed "github.com/aed-net/aed"
	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/simulate"
)

// aedd is a running aedd child process.
type aedd struct {
	cmd  *exec.Cmd
	base string
	logs *bytes.Buffer // stderr but the address line; read only after done
	done chan struct{} // closed once stderr is drained
}

var servingRE = regexp.MustCompile(`serving on (http://\S+)`)

// startAedd spawns bin on a loopback port of its choosing and waits for
// /healthz to answer.
func startAedd(bin string, client *http.Client) (*aedd, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start aedd: %w", err)
	}
	a := &aedd{cmd: cmd, logs: &bytes.Buffer{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(a.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if m := servingRE.FindStringSubmatch(sc.Text()); m != nil && !sent {
				addr <- m[1]
				sent = true
				continue
			}
			a.logs.WriteString(sc.Text() + "\n")
		}
	}()
	select {
	case a.base = <-addr:
	case <-a.done:
		a.stop()
		return nil, fmt.Errorf("aedd exited before serving: %s", a.logs)
	case <-time.After(30 * time.Second):
		a.stop()
		return nil, errors.New("aedd did not report its address within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(a.base + api.PathHealthz)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return a, nil
			}
		}
		if time.Now().After(deadline) {
			a.stop()
			return nil, fmt.Errorf("aedd /healthz did not answer: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks aedd to drain (SIGTERM) and waits for it to exit, killing
// it if the drain takes longer than a minute.
func (a *aedd) stop() error {
	if a.cmd.ProcessState != nil {
		return nil
	}
	if err := a.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		a.cmd.Process.Kill()
	}
	waited := make(chan error, 1)
	go func() { waited <- a.cmd.Wait() }()
	var err error
	select {
	case err = <-waited:
	case <-time.After(time.Minute):
		a.cmd.Process.Kill()
		err = fmt.Errorf("aedd did not drain within a minute: %v", <-waited)
	}
	<-a.done
	return err
}

// totalAllocBytes reads the Go runtime's cumulative heap allocation of
// aedd from the MemStats trailer of its heap profile.
func (a *aedd) totalAllocBytes(client *http.Client) (float64, error) {
	resp, err := client.Get(a.base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("aedd heap profile has no TotalAlloc")
}

// request kinds of the aedd-sessions mix.
const (
	kindHit  = "hit"  // no change: every destination is a cache hit
	kindFlip = "flip" // one local preference toggled: tier-2 rebind
	kindSwap = "swap" // one policy toggled reach/block: tier-3 re-encode
)

// mix is the share of each edit kind; the rest are no-change re-solves.
// The shares are an assumption, not measured operator traffic: no trace
// of real edit-rerun traffic exists to draw them from. They are chosen
// so that hits dominate and the median falls among them, and so that
// the 95th percentile falls among the re-encodes, at about their
// median. With twice the re-encodes, one ran 40% of the time and the
// median fell on the edge between hits served alone and hits that
// shared the CPUs with a re-encode, moving by a fifth between runs of
// the same seed. Every request's latency is kept by kind in the
// envelope, so the quantiles can be recomputed under another mix.
const (
	flipShare = 0.10
	swapShare = 0.10
)

// sessionRate is the open loop's arrival rate, in requests per second.
// At the seed commit it keeps aedd about a fifth CPU-busy on a 2-core
// machine. At twice the rate and above, aedd's garbage collection of
// its session state and head-of-line blocking on the nproc connections
// made the latency quantiles swing by 30% and more between identical
// runs.
const sessionRate = 12.0

// latencyLimit is the latency a failed request is counted with, so
// failures show in the tail percentile.
const latencyLimit = 2000.0 // ms

// requestTimeout fails a request aedd does not answer, so a hung
// server cannot stall the run.
const requestTimeout = time.Minute

// arrival is one scheduled request.
type arrival struct {
	Due   time.Duration
	State sessionState
	Kind  string
}

// schedule draws the open loop's arrivals from the seed: rate×seconds
// requests at evenly spaced due times, each jittered by up to half a
// gap, in a seeded order. Every session gets the same number of
// requests and of each edit kind, rounded so that its round-robin
// toggles (from a seeded start) apply and revert every flip and every
// swap equally often: each run offers the same work.
func schedule(sz sessionSize, seed int64, rate float64, seconds time.Duration) []arrival {
	rng := rand.New(rand.NewSource(seed))
	per := int(rate*seconds.Seconds()) / sz.Sessions
	multiple := func(x float64, m int) int { return int(x/float64(m)+0.5) * m }
	flips := multiple(float64(per)*flipShare, 2*sz.Flips)
	swaps := multiple(float64(per)*swapShare, 2*sz.Swaps)
	type slot struct {
		session int
		kind    string
	}
	var slots []slot
	for s := 0; s < sz.Sessions; s++ {
		for i := 0; i < per; i++ {
			kind := kindHit
			switch {
			case i < flips:
				kind = kindFlip
			case i < flips+swaps:
				kind = kindSwap
			}
			slots = append(slots, slot{s, kind})
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// Spread the swaps evenly over the run: re-encodes that overlap queue
	// behind each other, and how often that happened varied the tail
	// between runs more than anything the program did.
	var swapSlots, rest []slot
	for _, sl := range slots {
		if sl.kind == kindSwap {
			swapSlots = append(swapSlots, sl)
		} else {
			rest = append(rest, sl)
		}
	}
	n := len(slots)
	slots = slots[:0]
	for i, k := 0, 0; i < n; i++ {
		if k < len(swapSlots) && i == (2*k+1)*n/(2*len(swapSlots)) {
			slots = append(slots, swapSlots[k])
			k++
		} else {
			slots = append(slots, rest[i-k])
		}
	}

	cur := make([]sessionState, sz.Sessions)
	nextFlip := make([]int, sz.Sessions)
	nextSwap := make([]int, sz.Sessions)
	for s := range cur {
		cur[s] = sessionState{Session: s, Flip: -1, Swap: -1}
		nextFlip[s] = rng.Intn(sz.Flips)
		nextSwap[s] = rng.Intn(sz.Swaps)
	}
	toggle := func(v, next *int, n int) {
		if *v >= 0 {
			*v = -1
			return
		}
		*v = *next
		*next = (*next + 1) % n
	}
	gap := seconds.Seconds() / float64(len(slots))
	out := make([]arrival, 0, len(slots))
	for i, sl := range slots {
		s := sl.session
		switch sl.kind {
		case kindFlip:
			toggle(&cur[s].Flip, &nextFlip[s], sz.Flips)
		case kindSwap:
			toggle(&cur[s].Swap, &nextSwap[s], sz.Swaps)
		}
		due := time.Duration((float64(i) + rng.Float64()) * gap * float64(time.Second))
		out = append(out, arrival{Due: due, State: cur[s], Kind: sl.kind})
	}
	return out
}

// outcome is one open-loop request as the client saw it: how late the
// generator launched it and its latency from its due time.
type outcome struct {
	Late, Latency time.Duration
	Status        int
	Body          []byte
	Err           error
}

// segment is the length of the open loop's stretches. Between two
// stretches the generator waits for every request in flight to be
// answered and samples the host's speed while aedd is idle; each
// stretch keeps its own due times.
const segment = 2 * time.Second

// openLoop sends the schedule's requests at their due times over at
// most conns connections, without waiting for replies, sampling the
// host's speed before every segment and after the last.
func openLoop(client *http.Client, base string, sched []arrival, bodies map[sessionState][]byte, sp *speedLog) ([]outcome, error) {
	out := make([]outcome, len(sched))
	for i := 0; i < len(sched); {
		if err := sp.sample(); err != nil {
			return nil, err
		}
		seg := sched[i].Due / segment
		var wg sync.WaitGroup
		start := time.Now().Add(20 * time.Millisecond).Add(-seg * segment)
		for ; i < len(sched) && sched[i].Due/segment == seg; i++ {
			a := sched[i]
			time.Sleep(time.Until(start.Add(a.Due)))
			launch := time.Now()
			wg.Add(1)
			go func(i int, a arrival, launch time.Time) {
				defer wg.Done()
				o := &out[i]
				o.Late = launch.Sub(start.Add(a.Due))
				o.Status, o.Body, o.Err = post(client, base, bodies[a.State])
				done := time.Now()
				o.Latency = done.Sub(start.Add(a.Due))
			}(i, a, launch)
		}
		wg.Wait()
	}
	return out, sp.sample()
}

func post(client *http.Client, base string, body []byte) (int, []byte, error) {
	resp, err := client.Post(base+api.PathSolve, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// checkHTTP turns a served request into a check verdict: transport
// errors, refusals (429, 503) and every other non-200 status fail it.
func checkHTTP(chk *checker, in Input, status int, body []byte, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", in.Name, err)
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", in.Name, status, bytes.TrimSpace(body))
	}
	var resp aed.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s: response: %w", in.Name, err)
	}
	return chk.check(in, &resp)
}

// sessionsRun holds what both the untraced and the traced aedd-sessions
// runs need.
type sessionsRun struct {
	set     sessionSet
	chk     *checker
	aeddBin string
	calib   string // calib binary, the speed reference
	rate    float64
	seed    int64
	seconds time.Duration
	spans   string // where the traced run writes its spans; "" for nowhere
	env     *envelope
}

// served is one untraced open-loop run against a live aedd: its
// end-to-end metrics, the schedule and request bodies it sent, and the
// client-side figures the traced run reports per layer.
type served struct {
	metrics          map[string]float64
	sched            []arrival
	bodies           map[sessionState][]byte
	meanLatency      float64 // ms from due time
	rejects, lateP95 float64
}

func (r *sessionsRun) bodies() (map[sessionState][]byte, error) {
	out := map[sessionState][]byte{}
	for st, in := range r.set.Inputs {
		b, err := json.Marshal(in.Req)
		if err != nil {
			return nil, err
		}
		out[st] = b
	}
	return out, nil
}

// serve spawns aedd, primes every session cold, runs the open loop and
// drains aedd.
func (r *sessionsRun) serve(t *tally) (*served, error) {
	bodies, err := r.bodies()
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	client := &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()

	sp, err := startSpeedLog(r.calib)
	if err != nil {
		return nil, err
	}
	defer sp.stop()
	// Set up setupRuns times and keep the last aedd for the open loop.
	var a *aedd
	defer func() {
		if a != nil {
			a.stop()
		}
	}()
	var setups, primes []float64
	for i := 0; i < setupRuns; i++ {
		if a != nil {
			if err := a.stop(); err != nil {
				return nil, err
			}
		}
		if err := sp.sample(); err != nil {
			return nil, err
		}
		var setup float64
		var p []float64
		a, setup, p, err = r.setUp(client, bodies)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		primes = append(primes, p...)
	}

	sched := schedule(r.set.Size, r.seed, r.rate, r.seconds)
	if len(sched) == 0 {
		return nil, errors.New("empty schedule")
	}
	alloc0, err := a.totalAllocBytes(client)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(a.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	start, spent0 := time.Now(), sp.spent
	outs, err := openLoop(client, a.base, sched, bodies, sp)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start) - (sp.spent - spent0)
	cpu1, err := procCPU(a.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	alloc1, err := a.totalAllocBytes(client)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(a.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	if err := a.stop(); err != nil {
		return nil, err
	}

	var lat, late []float64
	byKind := map[string][]float64{}
	ok, rejects := 0, 0
	for i, o := range outs {
		err := checkHTTP(r.chk, r.set.Inputs[sched[i].State], o.Status, o.Body, o.Err)
		t.add(err)
		l := ms(o.Latency)
		if err == nil {
			ok++
		} else if l < latencyLimit {
			l = latencyLimit
		}
		if o.Status == http.StatusTooManyRequests || o.Status == http.StatusServiceUnavailable {
			rejects++
		}
		lat = append(lat, l)
		late = append(late, ms(o.Late))
		byKind[sched[i].Kind] = append(byKind[sched[i].Kind], l)
	}
	n := float64(len(outs))
	r.env.Samples["latency_ms"] = spreadOf(lat)
	r.env.ByKind = map[string][]float64{}
	for k, v := range byKind {
		r.env.Samples["latency_"+k+"_ms"] = spreadOf(v)
		for _, l := range v {
			r.env.ByKind[k] = append(r.env.ByKind[k], math.Round(l*1000)/1000)
		}
	}
	r.env.Samples["loadgen_late_ms"] = spreadOf(late)
	r.env.Samples["prime_s"] = spreadOf(primes)
	r.env.Samples["setup_s"] = spreadOf(setups)
	r.env.Rate = r.rate
	r.env.Connections = conns
	vals := map[string]float64{
		"latency_p50_ms":   median(lat),
		"latency_p95_ms":   quantile(lat, 0.95),
		"throughput_per_s": float64(ok) / wall.Seconds(),
		"cpu_ms_per_op":    ms(cpu1-cpu0) / n,
		"alloc_mb_per_op":  (alloc1 - alloc0) / n / 1e6,
		"peak_rss_mb":      rss,
		"ok_frac":          float64(ok) / n,
		"setup_s":          median(setups),
	}
	sp.normalize(vals, openLoopScaled, r.env)
	return &served{sched: sched, bodies: bodies, meanLatency: mean(lat),
		rejects: float64(rejects), lateP95: quantile(late, 0.95), metrics: vals}, nil
}

// setupRuns is how many times an aedd-sessions run sets up; setup_s is
// the median.
const setupRuns = 3

// setUp spawns aedd and primes every session cold, checking each
// answer. It returns the running aedd, the set-up time (spawn to
// /healthz plus every priming solve) and each priming solve's time, in
// seconds.
func (r *sessionsRun) setUp(client *http.Client, bodies map[sessionState][]byte) (*aedd, float64, []float64, error) {
	t0 := time.Now()
	a, err := startAedd(r.aeddBin, client)
	if err != nil {
		return nil, 0, nil, err
	}
	setup := time.Since(t0).Seconds()
	var primes []float64
	for s := 0; s < r.set.Size.Sessions; s++ {
		st := sessionState{Session: s, Flip: -1, Swap: -1}
		p0 := time.Now()
		status, body, err := post(client, a.base, bodies[st])
		p := time.Since(p0).Seconds()
		setup += p
		primes = append(primes, p)
		if err := checkHTTP(r.chk, r.set.Inputs[st], status, body, err); err != nil {
			a.stop()
			return nil, 0, nil, fmt.Errorf("priming: %w", err)
		}
	}
	return a, setup, primes, nil
}

// runSessions is the untraced aedd-sessions run.
func runSessions(r *sessionsRun) (map[string]float64, tally, error) {
	var t tally
	s, err := r.serve(&t)
	if err != nil {
		return nil, t, err
	}
	return s.metrics, t, nil
}

// replaySessions replays a request sequence in process, sequentially,
// as aedd serves it: decode, materialize, Engine.Solve on the request's
// session, validate, convert, encode. Sessions are primed untimed
// first. With a nil tracer the same calls run without spans (the base
// of the tracing overhead) and validation stays inside Engine.Solve.
func (r *sessionsRun) replaySessions(tr *tracer, sched []arrival, bodies map[sessionState][]byte, t *tally, kinds map[string][]float64) (replayed, error) {
	ctx := context.Background()
	var c counts
	engines := map[int]*core.Engine{}
	// The traced replay validates outside Engine.Solve, against the
	// deduplicated, subdivided policies core validates against. They are
	// derived here, before any span opens: Engine.Solve groups the
	// policies itself, so a grouping call in the replay would time
	// benchmark work, not the program's.
	checkPolicies := map[sessionState][]policy.Policy{}
	if tr != nil {
		for st, in := range r.set.Inputs {
			p, err := in.Req.Materialize()
			if err != nil {
				return replayed{}, err
			}
			checkPolicies[st] = policy.SubdividePolicies(policy.Dedup(p.Policies))
		}
	}
	solve := func(body []byte, st sessionState) (*api.Response, *core.Result, time.Duration, error) {
		var req api.Request
		var p *api.Problem
		var res *core.Result
		var resp *api.Response
		var err error
		var solveTime time.Duration
		if tr == nil {
			if err = json.Unmarshal(body, &req); err != nil {
				return nil, nil, 0, err
			}
			if p, err = req.Materialize(); err != nil {
				return nil, nil, 0, err
			}
		} else {
			tr.begin(rootName)
			defer tr.end()
			tr.do("api.json", func() { err = json.Unmarshal(body, &req) })
			if err != nil {
				return nil, nil, 0, err
			}
			if p, err = materialize(tr, &req); err != nil {
				return nil, nil, 0, err
			}
			p.Opts.SkipValidation = true
		}
		// aedd gives each request one solver worker (GOMAXPROCS divided
		// by its pool of GOMAXPROCS workers).
		p.Opts.Workers = 1
		eng := engines[st.Session]
		if eng == nil {
			eng = core.NewEngine(p.Net, p.Topo, p.Opts)
			engines[st.Session] = eng
		}
		coreSolve := func() {
			s0 := time.Now()
			eng.SetNetwork(p.Net)
			res, err = eng.Solve(ctx, p.Policies)
			solveTime = time.Since(s0)
		}
		if tr == nil {
			coreSolve()
		} else {
			tr.do("core.solve", coreSolve)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		if u := res.Unsat(); u != nil {
			return nil, nil, 0, u
		}
		if tr == nil {
			resp = api.FromResult(res)
			_, err = json.Marshal(resp)
			return resp, res, solveTime, err
		}
		ps := checkPolicies[st]
		tr.do("simulate.validate", func() { res.Violations = simulate.New(res.Updated, p.Topo).CheckAll(ps) })
		tr.do("api.from_result", func() { resp = api.FromResult(res) })
		tr.do("api.json", func() { _, err = json.Marshal(resp) })
		return resp, res, solveTime, err
	}
	for s := 0; s < r.set.Size.Sessions; s++ {
		st := sessionState{Session: s, Flip: -1, Swap: -1}
		in := r.set.Inputs[st]
		if tr != nil {
			tr.op = -1 - s
		}
		resp, _, _, err := solve(bodies[st], st)
		if err == nil {
			err = r.chk.check(in, resp)
		}
		if err != nil {
			return replayed{}, fmt.Errorf("priming: %w", err)
		}
	}
	if tr != nil {
		tr.spans = tr.spans[:0]
	}
	rt0 := readRuntime()
	start := time.Now()
	for i, a := range sched {
		in := r.set.Inputs[a.State]
		if tr != nil {
			tr.op = i
		}
		resp, res, d, err := solve(bodies[a.State], a.State)
		if err == nil {
			err = r.chk.check(in, resp)
		}
		t.add(err)
		if err != nil {
			continue
		}
		kind := kindOf(res)
		if kinds != nil {
			kinds[kind] = append(kinds[kind], ms(d))
		}
		for _, is := range res.Instances {
			c.Instances++
			if is.Cached {
				c.Hits++
			}
		}
		if a.Kind == kindFlip {
			c.RebindTried++
			if kind == kindFlip {
				c.RebindUsed++
			}
		}
	}
	return replayed{Wall: time.Since(start), Counts: c, Runtime: readRuntime().sub(rt0)}, nil
}

// replayed is what a replay of the request sequence measured.
type replayed struct {
	Wall    time.Duration
	Counts  counts
	Runtime runtimeCounters
}

// kindOf classifies how a session served a request: all destinations
// cached, some rebound live (tier 2), or some re-encoded (tier 3).
func kindOf(res *core.Result) string {
	kind := kindHit
	for _, is := range res.Instances {
		switch {
		case is.Cached:
		case is.Rebound:
			if kind == kindHit {
				kind = kindFlip
			}
		default:
			kind = kindSwap
		}
	}
	return kind
}

// traceSessions runs the open loop against aedd for the client-side
// figures, then replays the same request sequence in process, traced
// and untraced.
func traceSessions(r *sessionsRun) (map[string]float64, tally, error) {
	var t tally
	s, err := r.serve(&t)
	if err != nil {
		return nil, t, err
	}
	untraced, err := r.replaySessions(nil, s.sched, s.bodies, &t, nil)
	if err != nil {
		return nil, t, err
	}
	tr := newTracer()
	kinds := map[string][]float64{}
	traced, err := r.replaySessions(tr, s.sched, s.bodies, &t, kinds)
	if err != nil {
		return nil, t, err
	}
	if r.spans != "" {
		if err := tr.write(r.spans); err != nil {
			return nil, t, err
		}
	}
	c := traced.Counts
	b := tr.breakdown()
	n := len(s.sched)
	m, err := layerMetrics(tr, b, c, n, traced.Runtime, r.env)
	if err != nil {
		return nil, t, err
	}
	speedup, err := parallelSpeedup(r.set.Inputs[sessionState{Session: 0, Flip: -1, Swap: -1}], r.chk, &t)
	if err != nil {
		return nil, t, err
	}
	for k, v := range kinds {
		r.env.Samples["core_"+k+"_ms"] = spreadOf(v)
	}
	untracedMean := ms(untraced.Wall) / float64(n)
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	m["core.dest_parallel_speedup"] = speedup
	m["trace.overhead_ratio"] = tr.rootWall().Seconds() / untraced.Wall.Seconds()
	m["core.hit_ms"] = median(kinds[kindHit])
	m["core.rebind_ms"] = median(kinds[kindFlip])
	m["core.reencode_ms"] = median(kinds[kindSwap])
	m["core.cache_hit_ratio"] = ratio(c.Hits, c.Instances)
	m["core.rebind_ratio"] = ratio(c.RebindUsed, c.RebindTried)
	m["api.json_ms"] = ms(b["api.json"].Time) / float64(n)
	m["service.wire_queue_ms"] = s.meanLatency - untracedMean
	m["service.rejects"] = s.rejects
	m["loadgen.late_p95_ms"] = s.lateP95
	r.env.NotMeasured = append(r.env.NotMeasured, "encode.build_ms", "encode.alloc_mb", "encode.allocs_k",
		"encode.deltas", "smt.cnf_vars", "smt.cnf_clauses", "smt.intern_hit_ratio", "objective.instantiate_ms",
		"smt.maximize_ms", "smt.alloc_mb", "smt.sat_calls", "sat.conflicts", "sat.decisions", "sat.propagations",
		"sat.restarts", "sat.props_per_ms", "sat.peak_clause_mb", "encode.extract_ms", "encode.apply_ms",
		"policy.group_ms")
	return m, t, nil
}

// parallelSpeedup times core.SynthesizeContext on one input
// sequentially and with default per-destination parallelism.
func parallelSpeedup(in Input, chk *checker, t *tally) (float64, error) {
	p, err := in.Req.Materialize()
	if err != nil {
		return 0, err
	}
	var walls [2]time.Duration
	for i, seq := range []bool{true, false} {
		opts := p.Opts
		opts.Sequential = seq
		s0 := time.Now()
		res, err := core.SynthesizeContext(context.Background(), p.Net, p.Topo, p.Policies, opts)
		walls[i] = time.Since(s0)
		t.add(checkResult(chk, in, res, err))
	}
	return walls[0].Seconds() / walls[1].Seconds(), nil
}
