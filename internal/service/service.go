// Package service implements aedd's multi-tenant synthesis server: a
// long-lived process hosting many named aed sessions, fed by a bounded
// request queue and a fixed pool of solver workers.
//
// Admission control is strict so the service degrades predictably
// under the solver-time dominance a synthesis workload exhibits:
//
//   - the request queue is bounded; a full queue rejects immediately
//     with api.ErrQueueFull (HTTP 429) — requests are never queued
//     unboundedly;
//   - each tenant has a solve-time budget per rolling window; an
//     exhausted budget rejects with api.ErrBudgetExceeded (HTTP 402)
//     until the window refills;
//   - every request carries a deadline (its own timeout_ms, clamped to
//     the server maximum); expiry stops the in-flight CDCL search at
//     its next conflict via the context plumbing;
//   - Shutdown closes admission (api.ErrDraining, HTTP 503) and drains
//     every admitted solve before returning — no in-flight work is
//     dropped;
//   - a request body larger than maxRequestBytes is rejected unparsed
//     with api.ErrRequestTooLarge (HTTP 413).
//
// The obs debug surface (/metrics, /spans, /recorder, /debug/pprof/)
// is mounted natively on the service handler, so per-tenant counters
// and solve-latency histograms are first-class service metrics.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
	"github.com/aed-net/aed/internal/topology"
)

// maxRequestBytes caps a solve request's body. It is far above the
// textual configs of the largest networks the benchmarks generate, and
// it bounds the memory one client can make the decoder allocate.
const maxRequestBytes = 16 << 20

// Config sizes the service. Zero values select the documented
// defaults.
type Config struct {
	// Workers is the solver pool size (concurrent solves); 0 =
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the request queue (admitted but not yet
	// solving); 0 = 2x workers.
	QueueDepth int
	// DefaultTimeout applies to requests without timeout_ms; 0 = 60s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps request timeouts; 0 = 10m.
	MaxTimeout time.Duration
	// TenantBudget is the solver time each tenant may spend per
	// BudgetWindow; 0 = unlimited.
	TenantBudget time.Duration
	// BudgetWindow is the budget refill interval; 0 = 1m.
	BudgetWindow time.Duration
	// MaxSessions caps live sessions across all tenants (least
	// recently used is evicted); 0 = 64.
	MaxSessions int
	// SolveWorkers bounds per-destination parallelism inside one solve
	// when the request doesn't set options.workers. 0 = GOMAXPROCS /
	// Workers (at least 1), so a fully loaded pool doesn't oversubscribe
	// the machine.
	SolveWorkers int
	// Tracer receives every span, counter, and histogram; nil creates
	// one with a flight recorder attached.
	Tracer *obs.Tracer
	// MaxTenantLabels caps the distinct per-tenant metric families;
	// extra tenants are folded into the "other" label. 0 = 64.
	MaxTenantLabels int
	// AccessLog, when non-nil, receives one JSON line per request (see
	// accessEntry): identity, verdict, queue wait, solve time and cache
	// tiers hit. Writes are serialized; nil (the default) disables the
	// log.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.BudgetWindow <= 0 {
		c.BudgetWindow = time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.SolveWorkers <= 0 {
		c.SolveWorkers = runtime.GOMAXPROCS(0) / c.Workers
		if c.SolveWorkers < 1 {
			c.SolveWorkers = 1
		}
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewCLITracer()
	}
	if c.MaxTenantLabels <= 0 {
		c.MaxTenantLabels = 64
	}
	return c
}

// Server hosts sessions and executes solves. Create with New, expose
// with Handler, stop with Shutdown.
type Server struct {
	cfg Config
	tr  *obs.Tracer

	queue   chan *job
	workers sync.WaitGroup

	mu       sync.Mutex
	draining bool
	sessions map[string]*session // key: tenant + "/" + name
	tenants  map[string]*tenantState
	labels   map[string]string // tenant -> metric label (capped)

	// In-flight request table behind GET /v1/requests (requests.go).
	ifmu     sync.Mutex
	inflight map[string]*inflight

	// Access log (requests.go); alMu serializes lines.
	alMu      sync.Mutex
	accessLog io.Writer

	// beforeSolve, when set, runs just before each job's solve (under
	// the session lock for session requests). It is a test seam: tests
	// make it panic to exercise the job-boundary recover.
	beforeSolve func(*job)
}

// job is one admitted request travelling from handler to worker.
type job struct {
	req      *api.Request
	prob     *api.Problem
	tenant   string
	ctx      jobContext
	enqueued time.Time
	done     chan jobResult
	// fl is the request's in-flight table entry; the worker flips its
	// state to "solving". Nil for jobs built outside handleSolve.
	fl *inflight
}

// jobContext bundles the request context with its cancel so the worker
// releases the timer.
type jobContext struct {
	ctx    context.Context
	cancel context.CancelFunc
}

type jobResult struct {
	resp *api.Response
	err  error
	// queueWait is how long the job sat admitted before a worker picked
	// it up; solve is the worker's wall time on it. Both feed the access
	// log (and aedbench's service experiment) as separate series.
	queueWait time.Duration
	solve     time.Duration
}

// session is one live incremental engine plus the bookkeeping that
// decides when it must be rebuilt.
type session struct {
	mu       sync.Mutex // serializes SetNetwork+Solve pairs
	eng      *core.Engine
	topo     *topology.Topology
	optsKey  string
	lastUsed time.Time
	solves   int64
}

// tenantState is one tenant's budget window.
type tenantState struct {
	windowStart time.Time
	spent       time.Duration
}

// New starts the worker pool and returns the server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		tr:        cfg.Tracer,
		queue:     make(chan *job, cfg.QueueDepth),
		sessions:  make(map[string]*session),
		tenants:   make(map[string]*tenantState),
		labels:    make(map[string]string),
		inflight:  make(map[string]*inflight),
		accessLog: cfg.AccessLog,
	}
	m := s.tr.Metrics()
	m.Gauge("aedd.workers").Set(int64(cfg.Workers))
	m.Gauge("aedd.queue.cap").Set(int64(cfg.QueueDepth))
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Tracer exposes the server's telemetry root (for tests and for main
// to wire retention).
func (s *Server) Tracer() *obs.Tracer { return s.tr }

// tenantLabel folds unbounded tenant names into a bounded metric
// label space so a tenant flood cannot grow the registry without
// limit.
func (s *Server) tenantLabel(tenant string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if l, ok := s.labels[tenant]; ok {
		return l
	}
	l := tenant
	if len(s.labels) >= s.cfg.MaxTenantLabels {
		l = "other"
	}
	s.labels[tenant] = l
	return l
}

// admit performs admission control for one parsed request: draining
// check, tenant budget check, then a non-blocking enqueue. It returns
// the typed rejection without ever blocking the caller.
func (s *Server) admit(j *job) error {
	m := s.tr.Metrics()
	label := s.tenantLabel(j.tenant)
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		m.Counter("aedd.rejected.draining").Add(1)
		return fmt.Errorf("aedd: %w", api.ErrDraining)
	}
	if err := s.checkBudgetLocked(j.tenant); err != nil {
		s.mu.Unlock()
		m.Counter("aedd.rejected.budget").Add(1)
		m.Counter("aedd.tenant." + label + ".rejected.budget").Add(1)
		return err
	}
	select {
	case s.queue <- j:
		depth := int64(len(s.queue))
		s.mu.Unlock()
		m.Gauge("aedd.queue.depth").Set(depth)
		m.Counter("aedd.admitted").Add(1)
		m.Counter("aedd.tenant." + label + ".admitted").Add(1)
		return nil
	default:
		s.mu.Unlock()
		m.Counter("aedd.rejected.queue_full").Add(1)
		m.Counter("aedd.tenant." + label + ".rejected.queue_full").Add(1)
		return fmt.Errorf("aedd: queue at capacity %d: %w", s.cfg.QueueDepth, api.ErrQueueFull)
	}
}

// checkBudgetLocked enforces the tenant's solve-time budget for the
// current window (lazy refill). Caller holds s.mu.
func (s *Server) checkBudgetLocked(tenant string) error {
	if s.cfg.TenantBudget <= 0 {
		return nil
	}
	t := s.tenants[tenant]
	if t == nil {
		t = &tenantState{windowStart: time.Now()}
		s.tenants[tenant] = t
	}
	if time.Since(t.windowStart) >= s.cfg.BudgetWindow {
		t.windowStart = time.Now()
		t.spent = 0
	}
	if t.spent >= s.cfg.TenantBudget {
		return fmt.Errorf("aedd: tenant %q spent %v of %v this window: %w",
			tenant, t.spent.Round(time.Millisecond), s.cfg.TenantBudget, api.ErrBudgetExceeded)
	}
	return nil
}

// charge books solver time against the tenant's window after a solve.
func (s *Server) charge(tenant string, d time.Duration) {
	if s.cfg.TenantBudget <= 0 || d <= 0 {
		return
	}
	label := s.tenantLabel(tenant)
	s.mu.Lock()
	if t := s.tenants[tenant]; t != nil {
		t.spent += d
	}
	s.mu.Unlock()
	s.tr.Metrics().Counter("aedd.tenant." + label + ".budget_spent_ms").Add(d.Milliseconds())
}

func (s *Server) worker() {
	defer s.workers.Done()
	m := s.tr.Metrics()
	for j := range s.queue {
		m.Gauge("aedd.queue.depth").Set(int64(len(s.queue)))
		wait := time.Since(j.enqueued)
		m.Histogram("aedd.queue_wait_ms", obs.LatencyBuckets).
			ObserveExemplar(float64(wait.Microseconds())/1000, j.req.RequestID)
		j.fl.setState("solving")
		solveStart := time.Now()
		resp, err := s.run(j)
		j.ctx.cancel()
		m.Counter("aedd.completed").Add(1)
		j.done <- jobResult{resp: resp, err: err, queueWait: wait, solve: time.Since(solveStart)}
	}
}

// run executes one job and contains a panic anywhere in its solve path
// to that job: the request fails with an internal error (HTTP 500)
// naming its ID, aedd.panics counts it, the panic and its stack go to
// the process log, and the worker stays in the pool, so other tenants'
// solves and the admitted == completed drain guarantee survive. A named
// session is dropped, since its engine may be half-updated; the next
// request on that name rebuilds it.
func (s *Server) run(j *job) (resp *api.Response, err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.tr.Metrics().Counter("aedd.panics").Add(1)
		log.Printf("aedd: panic in request %s: %v\n%s", j.req.RequestID, p, debug.Stack())
		if j.req.Session != "" {
			s.dropSession(j.tenant + "/" + j.req.Session)
		}
		// The wire message carries the panic's first line only; a panic
		// re-raised from a destination worker appends that worker's
		// stack, which belongs in the log, not in the response.
		msg, _, _ := strings.Cut(fmt.Sprint(p), "\n")
		resp, err = nil, fmt.Errorf("aedd: request %s: internal error: %s", j.req.RequestID, msg)
	}()
	return s.execute(j)
}

// execute runs one admitted job: resolve or build the session (when
// named), solve, convert, and charge the tenant for the solver time
// actually spent.
func (s *Server) execute(j *job) (*api.Response, error) {
	start := time.Now()
	label := s.tenantLabel(j.tenant)
	prob := j.prob
	prob.Opts.Tracer = s.tr

	var res *core.Result
	var err error
	if j.req.Session == "" {
		if s.beforeSolve != nil {
			s.beforeSolve(j)
		}
		res, err = core.SynthesizeContext(j.ctx.ctx, prob.Net, prob.Topo, prob.Policies, prob.Opts)
	} else {
		res, err = s.solveSession(j, s.resolveSession(j.tenant, j.req, prob))
	}

	// Charge the solver time actually consumed, whatever the outcome:
	// satisfiable, unsatisfiable, or interrupted.
	if res != nil {
		s.charge(j.tenant, res.SolveTime)
	} else {
		s.charge(j.tenant, time.Since(start))
	}
	ms := float64(time.Since(start).Microseconds()) / 1000
	m := s.tr.Metrics()
	m.Histogram("aedd.solve_ms", obs.LatencyBuckets).ObserveExemplar(ms, j.req.RequestID)
	m.Histogram("aedd.tenant."+label+".solve_ms", obs.LatencyBuckets).Observe(ms)
	if err != nil {
		return nil, err
	}
	if u := res.Unsat(); u != nil {
		m.Counter("aedd.unsat").Add(1)
		return nil, u
	}
	return api.FromResult(res), nil
}

// solveSession runs one job's solve on its live session. The session
// lock is released by defer, so a panicking solve cannot wedge later
// requests on the same session.
func (s *Server) solveSession(j *job, sess *session) (*core.Result, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if s.beforeSolve != nil {
		s.beforeSolve(j)
	}
	sess.eng.SetNetwork(j.prob.Net)
	res, err := sess.eng.Solve(j.ctx.ctx, j.prob.Policies)
	sess.solves++
	return res, err
}

// resolveSession returns the live session for (tenant, name), building
// or rebuilding it when the topology or the solve options changed.
// Network and policy changes are NOT rebuild triggers — they flow
// through the engine's per-destination fingerprints, which is the
// entire point of holding sessions server-side.
func (s *Server) resolveSession(tenant string, req *api.Request, prob *api.Problem) *session {
	key := tenant + "/" + req.Session
	optsKey := req.OptionsKey()
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[key]
	if sess != nil && sess.optsKey == optsKey && api.SameTopology(sess.topo, prob.Topo) {
		sess.lastUsed = time.Now()
		return sess
	}
	if sess == nil {
		s.evictLocked()
		s.tr.Metrics().Counter("aedd.sessions.created").Add(1)
	} else {
		s.tr.Metrics().Counter("aedd.sessions.rebuilt").Add(1)
	}
	sess = &session{
		eng:     core.NewEngine(prob.Net, prob.Topo, prob.Opts),
		topo:    prob.Topo,
		optsKey: optsKey, lastUsed: time.Now(),
	}
	s.sessions[key] = sess
	s.tr.Metrics().Gauge("aedd.sessions").Set(int64(len(s.sessions)))
	return sess
}

// evictLocked drops the least-recently-used session once the cap is
// reached. Caller holds s.mu.
func (s *Server) evictLocked() {
	if len(s.sessions) < s.cfg.MaxSessions {
		return
	}
	var oldestKey string
	var oldest time.Time
	for k, sess := range s.sessions {
		if oldestKey == "" || sess.lastUsed.Before(oldest) {
			oldestKey, oldest = k, sess.lastUsed
		}
	}
	delete(s.sessions, oldestKey)
	s.tr.Metrics().Counter("aedd.sessions.evicted").Add(1)
}

// Shutdown closes admission and drains: every admitted job (queued or
// solving) completes and its handler gets its response before Shutdown
// returns. New requests are rejected with api.ErrDraining from the
// moment it is called. The ctx bounds the wait.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler builds the service's HTTP surface:
//
//	POST   /v1/solve            submit a synthesis request
//	GET    /v1/sessions         list live sessions
//	DELETE /v1/sessions/{name}  drop a session (?tenant= scopes it)
//	GET    /v1/requests         in-flight requests with open span trees
//	GET    /healthz             liveness + admission state
//	GET    /metrics|/spans|/recorder|/debug/pprof/   obs debug surface
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", obs.DebugMux(s.tr))
	mux.HandleFunc(api.PathSolve, s.handleSolve)
	mux.HandleFunc(api.PathSessions, s.handleSessions)
	mux.HandleFunc(api.PathSessions+"/", s.handleSession)
	mux.HandleFunc(api.PathRequests, s.handleRequests)
	mux.HandleFunc(api.PathHealthz, s.handleHealthz)
	return mux
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req api.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, fmt.Errorf("%w: body exceeds %d bytes", api.ErrRequestTooLarge, maxRequestBytes))
			return
		}
		writeError(w, fmt.Errorf("%w: body: %v", api.ErrInvalidRequest, err))
		return
	}
	prob, err := req.Materialize()
	if err != nil {
		writeError(w, err)
		return
	}
	// Resolve the request identity: header over body over
	// server-generated for the ID, header over body over "default" for
	// the tenant. The resolved ID is echoed on the response so the
	// caller always learns what to hand to aedtrace -request.
	reqID := r.Header.Get(api.HeaderRequestID)
	if reqID == "" {
		reqID = req.RequestID
	}
	if reqID == "" {
		reqID = api.NewRequestID()
	}
	req.RequestID = reqID
	tenant := r.Header.Get(api.HeaderTenant)
	if tenant == "" {
		tenant = req.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	req.Tenant = tenant
	w.Header().Set(api.HeaderRequestID, reqID)
	// The deadline starts at admission and includes queue wait: a
	// request that waited its budget out fails fast instead of
	// occupying a worker.
	timeout := prob.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	// Everything the solve does below this point — spans, recorder
	// events, watchdog incidents — is attributed to this request.
	ctx = obs.WithRequest(ctx, obs.RequestInfo{
		ID: reqID, Tenant: tenant, Session: req.Session,
	})
	if prob.Opts.Workers == 0 {
		prob.Opts.Workers = s.cfg.SolveWorkers
	}
	enqueued := time.Now()
	fl, untrack := s.trackRequest(reqID, tenant, req.Session, enqueued)
	defer untrack()
	j := &job{
		req: &req, prob: prob, tenant: tenant,
		ctx:      jobContext{ctx: ctx, cancel: cancel},
		enqueued: enqueued,
		done:     make(chan jobResult, 1),
		fl:       fl,
	}
	entry := accessEntry{RequestID: reqID, Tenant: tenant, Session: req.Session}
	if err := s.admit(j); err != nil {
		cancel()
		entry.Verdict = accessVerdict(err)
		s.logAccess(entry)
		writeError(w, err)
		return
	}
	// The worker always sends exactly one result, even for canceled
	// contexts, so this wait is bounded by the job deadline.
	out := <-j.done
	entry.Verdict = accessVerdict(out.err)
	entry.QueueWaitMS = float64(out.queueWait.Microseconds()) / 1000
	entry.SolveMS = float64(out.solve.Microseconds()) / 1000
	accessCounts(&entry, out.resp)
	s.logAccess(entry)
	if out.err != nil {
		writeError(w, out.err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out.resp)
}

func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type info = api.SessionInfo
	var out []info
	s.mu.Lock()
	for key, sess := range s.sessions {
		tenant, name, _ := strings.Cut(key, "/")
		out = append(out, info{
			Tenant: tenant, Session: name,
			LastUsed: sess.lastUsed.UTC().Format(time.RFC3339),
			Solves:   sess.solves,
		})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Session < out[j].Session
	})
	if out == nil {
		out = []info{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		http.Error(w, "DELETE only", http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, api.PathSessions+"/")
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		tenant = "default"
	}
	if !s.dropSession(tenant + "/" + name) {
		writeError(w, fmt.Errorf("aedd: session %q (tenant %q): %w", name, tenant, api.ErrSessionNotFound))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// dropSession removes the session under key and reports whether there
// was one.
func (s *Server) dropSession(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[key]; !ok {
		return false
	}
	delete(s.sessions, key)
	s.tr.Metrics().Gauge("aedd.sessions").Set(int64(len(s.sessions)))
	return true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	sessions := len(s.sessions)
	s.mu.Unlock()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"ok": !draining, "draining": draining,
		"sessions": sessions, "queue_depth": len(s.queue), "queue_cap": s.cfg.QueueDepth,
		"workers": s.cfg.Workers,
	})
}

func writeError(w http.ResponseWriter, err error) {
	body := api.EncodeError(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(api.HTTPStatus(err))
	json.NewEncoder(w).Encode(body)
}
