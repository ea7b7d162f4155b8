package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/config"
	"github.com/aed-net/aed/internal/configgen"
	"github.com/aed-net/aed/internal/topology"
)

// fixture renders a leaf-spine fabric into the wire formats with one
// blocking policy per leaf.
type fixture struct {
	configs  map[string]string
	topoText string
	policies string
	leaves   int
}

func newFixture(leaves, spines int) fixture {
	topo := topology.LeafSpine(leaves, spines, 1)
	net := configgen.Generate(topo, configgen.Options{Protocol: config.OSPF, WithRoleFilters: true})
	var policies string
	for d := 0; d < leaves; d++ {
		policies += fmt.Sprintf("block 10.%d.0.0/24 -> 10.%d.0.0/24\n", (d+1)%leaves, d)
	}
	return fixture{
		configs:  config.PrintNetwork(net),
		topoText: api.FormatTopology(topo),
		policies: policies,
		leaves:   leaves,
	}
}

func (f fixture) request(tenant, session string) *api.Request {
	return &api.Request{
		Tenant:   tenant,
		Session:  session,
		Configs:  f.configs,
		Topology: f.topoText,
		Policies: f.policies,
		Options:  api.SolveOptions{Sequential: true, SkipValidation: true},
	}
}

// start boots a server on httptest and registers draining cleanup.
func start(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	svc := New(cfg)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
		hs.Close()
	})
	return svc, &api.Client{Base: hs.URL}
}

// rawStatus POSTs the request bypassing the client so the test can pin
// the HTTP status code itself, not just the reconstructed error.
func rawStatus(t *testing.T, base string, req *api.Request) (int, api.WireError) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(base+api.PathSolve, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var w api.WireError
	if res.StatusCode != http.StatusOK {
		json.NewDecoder(res.Body).Decode(&w)
	}
	return res.StatusCode, w
}

func TestSolveAndSessionWarmPath(t *testing.T) {
	f := newFixture(3, 1)
	_, cl := start(t, Config{})
	ctx := context.Background()

	// One-shot solve.
	resp, err := cl.Do(ctx, f.request("", ""))
	if err != nil {
		t.Fatalf("one-shot solve: %v", err)
	}
	if len(resp.Instances) != f.leaves {
		t.Fatalf("instances = %d, want %d", len(resp.Instances), f.leaves)
	}

	// Cold session solve, then a warm repeat that must be all cache
	// hits.
	if _, err := cl.Do(ctx, f.request("", "s1")); err != nil {
		t.Fatalf("session cold solve: %v", err)
	}
	warm, err := cl.Do(ctx, f.request("", "s1"))
	if err != nil {
		t.Fatalf("session warm solve: %v", err)
	}
	if warm.Cached() != f.leaves {
		t.Errorf("warm solve cached %d/%d destinations", warm.Cached(), f.leaves)
	}

	// The session is listed, scoped to the default tenant.
	sessions, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Session != "s1" || sessions[0].Tenant != "default" {
		t.Errorf("sessions = %+v", sessions)
	}
	if sessions[0].Solves != 2 {
		t.Errorf("solves = %d, want 2", sessions[0].Solves)
	}
}

// slowRequest is an occupier: a monolithic minimize-lines solve over a
// larger fabric runs for hundreds of milliseconds, pinning the single
// worker (and then the single queue slot) while the test probes
// admission.
func (f fixture) slowRequest() *api.Request {
	r := f.request("", "")
	r.Options.Monolithic = true
	r.Options.MinimizeLines = true
	return r
}

// saturate fills a Workers:1/QueueDepth:1 server with two slow solves
// and blocks until both are admitted, so the next arrival must be
// rejected queue-full. The returned channel yields both results.
func saturate(t *testing.T, svc *Server, cl *api.Client, f fixture) chan error {
	t.Helper()
	ctx := context.Background()
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := cl.Do(ctx, f.slowRequest())
			done <- err
		}()
	}
	m := svc.Tracer().Metrics()
	deadline := time.Now().Add(10 * time.Second)
	for m.Counter("aedd.admitted").Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("occupier solves were never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	if m.Counter("aedd.completed").Value() >= 2 {
		t.Fatal("occupier solves finished before the probe; fixture too fast")
	}
	return done
}

func TestQueueFullRejects(t *testing.T) {
	f := newFixture(8, 2)
	probe := newFixture(2, 1)
	svc, cl := start(t, Config{Workers: 1, QueueDepth: 1})
	ctx := context.Background()

	// Capacity is 1 solving + 1 queued. With both slots pinned, every
	// further arrival must get the typed queue-full rejection
	// immediately — requests are never queued beyond the bound.
	done := saturate(t, svc, cl, f)
	var rejected int
	for i := 0; i < 4; i++ {
		_, err := cl.Do(ctx, probe.request("", ""))
		if errors.Is(err, api.ErrQueueFull) {
			rejected++
		} else if err != nil {
			t.Errorf("probe %d: unexpected error: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Error("no probe was rejected queue-full while the pool was saturated")
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("occupier solve: %v", err)
		}
	}

	// After the burst the queue has space again.
	if _, err := cl.Do(ctx, probe.request("", "")); err != nil {
		t.Errorf("post-burst solve: %v", err)
	}
}

func TestQueueFullStatusCode(t *testing.T) {
	f := newFixture(8, 2)
	probe := newFixture(2, 1)
	svc, cl := start(t, Config{Workers: 1, QueueDepth: 1})

	done := saturate(t, svc, cl, f)
	status, w := rawStatus(t, cl.Base, probe.request("", ""))
	if status != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", status)
	} else if w.Code != api.CodeQueueFull {
		t.Errorf("wire code = %q, want %q", w.Code, api.CodeQueueFull)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Errorf("occupier solve: %v", err)
		}
	}
}

func TestTenantBudget(t *testing.T) {
	f := newFixture(4, 1)
	_, cl := start(t, Config{TenantBudget: time.Microsecond, BudgetWindow: time.Hour})
	ctx := context.Background()

	// First request is admitted (nothing spent yet) and charges its
	// solve time, which exceeds the one-microsecond budget.
	if _, err := cl.Do(ctx, f.request("acme", "")); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	_, err := cl.Do(ctx, f.request("acme", ""))
	if !errors.Is(err, api.ErrBudgetExceeded) {
		t.Fatalf("second solve err = %v, want ErrBudgetExceeded", err)
	}
	status, w := rawStatus(t, cl.Base, f.request("acme", ""))
	if status != http.StatusPaymentRequired || w.Code != api.CodeBudgetExceeded {
		t.Errorf("status = %d code = %q, want 402 %q", status, w.Code, api.CodeBudgetExceeded)
	}

	// Budgets are per tenant: another tenant still gets served.
	if _, err := cl.Do(ctx, f.request("globex", "")); err != nil {
		t.Errorf("other tenant: %v", err)
	}
}

func TestDeadlinePropagation(t *testing.T) {
	f := newFixture(6, 2)
	_, cl := start(t, Config{})
	ctx := context.Background()

	req := f.request("", "")
	req.TimeoutMS = 1
	_, err := cl.Do(ctx, req)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// The expired solve released its worker; the service stays healthy.
	if _, err := cl.Do(ctx, f.request("", "")); err != nil {
		t.Errorf("follow-up solve: %v", err)
	}
	if err := cl.Health(ctx); err != nil {
		t.Errorf("health: %v", err)
	}
}

func TestConcurrentSessions(t *testing.T) {
	f := newFixture(3, 1)
	// A queue deep enough for every client: this test exercises the
	// session map, budget map, and metric registry under -race, not
	// admission control, so no request may be rejected queue-full.
	_, cl := start(t, Config{Workers: 2, QueueDepth: 16})
	ctx := context.Background()

	// Many tenants×sessions solving concurrently.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", i%2)
			session := fmt.Sprintf("s%d", i)
			for j := 0; j < 3; j++ {
				resp, err := cl.Do(ctx, f.request(tenant, session))
				if err != nil {
					t.Errorf("session %s/%s solve %d: %v", tenant, session, j, err)
					return
				}
				if j > 0 && resp.Cached() != f.leaves {
					t.Errorf("session %s/%s solve %d: cached %d/%d",
						tenant, session, j, resp.Cached(), f.leaves)
				}
			}
		}(i)
	}
	wg.Wait()

	sessions, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 8 {
		t.Errorf("sessions = %d, want 8", len(sessions))
	}
}

func TestSessionEviction(t *testing.T) {
	f := newFixture(2, 1)
	_, cl := start(t, Config{MaxSessions: 2})
	ctx := context.Background()

	for i := 0; i < 4; i++ {
		if _, err := cl.Do(ctx, f.request("", fmt.Sprintf("s%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sessions, err := cl.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Errorf("sessions = %d, want 2 (LRU eviction)", len(sessions))
	}
}

func TestDropSession(t *testing.T) {
	f := newFixture(2, 1)
	_, cl := start(t, Config{})
	ctx := context.Background()

	if _, err := cl.Do(ctx, f.request("", "prod")); err != nil {
		t.Fatal(err)
	}
	if err := cl.DropSession(ctx, "prod"); err != nil {
		t.Fatalf("drop: %v", err)
	}
	err := cl.DropSession(ctx, "prod")
	if !errors.Is(err, api.ErrSessionNotFound) {
		t.Errorf("second drop err = %v, want ErrSessionNotFound", err)
	}
	// Unknown tenant scoping also misses.
	other := &api.Client{Base: cl.Base, Tenant: "nobody"}
	if err := other.DropSession(ctx, "prod"); !errors.Is(err, api.ErrSessionNotFound) {
		t.Errorf("cross-tenant drop err = %v, want ErrSessionNotFound", err)
	}
}

func TestInvalidRequest(t *testing.T) {
	_, cl := start(t, Config{})
	status, w := rawStatus(t, cl.Base, &api.Request{})
	if status != http.StatusBadRequest || w.Code != api.CodeInvalidRequest {
		t.Errorf("status = %d code = %q, want 400 %q", status, w.Code, api.CodeInvalidRequest)
	}
	_, err := cl.Do(context.Background(), &api.Request{})
	if !errors.Is(err, api.ErrInvalidRequest) {
		t.Errorf("err = %v, want ErrInvalidRequest", err)
	}
}

// TestRequestTooLarge checks the body cap: a body over maxRequestBytes
// is rejected with a typed 413 before it is decoded, and the client
// reconstructs ErrRequestTooLarge from the wire error.
func TestRequestTooLarge(t *testing.T) {
	_, cl := start(t, Config{})
	// The body is streamed, so the client never holds it in memory.
	body := io.MultiReader(strings.NewReader(`{"policies":"`),
		io.LimitReader(zeros{}, maxRequestBytes), strings.NewReader(`"}`))
	res, err := http.Post(cl.Base+api.PathSolve, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var w api.WireError
	if err := json.NewDecoder(res.Body).Decode(&w); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusRequestEntityTooLarge || w.Code != api.CodeTooLarge {
		t.Errorf("status = %d code = %q, want 413 %q", res.StatusCode, w.Code, api.CodeTooLarge)
	}
	if err := w.Err(); !errors.Is(err, api.ErrRequestTooLarge) || api.HTTPStatus(err) != http.StatusRequestEntityTooLarge {
		t.Errorf("wire error %v does not round-trip to ErrRequestTooLarge", err)
	}
}

// zeros is an endless stream of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestGracefulShutdownDrains pins the zero-drop guarantee: every
// admitted request completes with a real response even when Shutdown
// lands mid-solve, later arrivals get the typed draining rejection,
// and the admitted/completed counters balance.
func TestGracefulShutdownDrains(t *testing.T) {
	f := newFixture(4, 1)
	svc := New(Config{Workers: 1, QueueDepth: 4})
	hs := httptest.NewServer(svc.Handler())
	defer hs.Close()
	cl := &api.Client{Base: hs.URL}
	ctx := context.Background()

	const n = 4
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := cl.Do(ctx, f.request("", ""))
			results <- err
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the first solve start

	shutCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	if err := svc.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Post-shutdown arrivals are rejected 503/draining.
	_, err := cl.Do(ctx, f.request("", ""))
	if !errors.Is(err, api.ErrDraining) {
		t.Errorf("post-shutdown err = %v, want ErrDraining", err)
	}
	status, w := rawStatus(t, cl.Base, f.request("", ""))
	if status != http.StatusServiceUnavailable || w.Code != api.CodeDraining {
		t.Errorf("status = %d code = %q, want 503 %q", status, w.Code, api.CodeDraining)
	}

	var completed, rejected int
	for i := 0; i < n; i++ {
		switch err := <-results; {
		case err == nil:
			completed++
		case errors.Is(err, api.ErrDraining), errors.Is(err, api.ErrQueueFull):
			rejected++
		default:
			t.Errorf("in-flight request: %v", err)
		}
	}
	if completed == 0 {
		t.Error("no in-flight request completed across shutdown")
	}
	m := svc.Tracer().Metrics()
	admitted := m.Counter("aedd.admitted").Value()
	done := m.Counter("aedd.completed").Value()
	if admitted != done {
		t.Errorf("admitted = %d, completed = %d: in-flight work dropped", admitted, done)
	}
	if int64(completed) != admitted {
		t.Errorf("client saw %d responses for %d admitted requests", completed, admitted)
	}

	// Shutdown is idempotent.
	if err := svc.Shutdown(shutCtx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	svc, cl := start(t, Config{})
	ctx := context.Background()
	if err := cl.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	shutCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	svc.Shutdown(shutCtx)
	if err := cl.Health(ctx); err == nil {
		t.Error("health = nil after shutdown, want draining error")
	}
}

// TestMetricsSurface pins that the obs debug routes are mounted
// natively on the service handler and carry the service counters.
func TestMetricsSurface(t *testing.T) {
	f := newFixture(2, 1)
	_, cl := start(t, Config{})
	ctx := context.Background()
	if _, err := cl.Do(ctx, f.request("", "m")); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Do(ctx, f.request("", "m")); err != nil {
		t.Fatal(err)
	}
	counters, err := cl.Counters(ctx)
	if err != nil {
		t.Fatalf("counters: %v", err)
	}
	for _, name := range []string{"aedd.admitted", "aedd.completed", "aedd.sessions.created", "session.cache.hits"} {
		if counters[name] == 0 {
			t.Errorf("counter %q = 0, want > 0 (have %d counters)", name, len(counters))
		}
	}
	for _, path := range []string{"/spans", "/recorder", "/debug/pprof/"} {
		res, err := http.Get(cl.Base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d", path, res.StatusCode)
		}
	}
}

func TestTenantLabelCap(t *testing.T) {
	s := New(Config{MaxTenantLabels: 2})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	if got := s.tenantLabel("a"); got != "a" {
		t.Errorf("label(a) = %q", got)
	}
	if got := s.tenantLabel("b"); got != "b" {
		t.Errorf("label(b) = %q", got)
	}
	if got := s.tenantLabel("c"); got != "other" {
		t.Errorf("label(c) = %q, want other", got)
	}
	if got := s.tenantLabel("a"); got != "a" {
		t.Errorf("label(a) second lookup = %q", got)
	}
}

// TestSolvePanicContained injects a panic into a solve, one-shot and
// session, and pins the containment contract: the request fails with a
// 500 internal error naming its ID, the counters still balance, and the
// one worker of the pool goes on serving — including the session whose
// solve panicked while holding its lock.
func TestSolvePanicContained(t *testing.T) {
	f := newFixture(2, 1)
	svc, cl := start(t, Config{Workers: 1})
	var fail sync.Map // request ID -> panic once
	svc.beforeSolve = func(j *job) {
		if _, ok := fail.LoadAndDelete(j.req.RequestID); ok {
			panic("injected solve fault")
		}
	}
	ctx := context.Background()
	for _, session := range []string{"", "s"} {
		req := f.request("", session)
		req.RequestID = "boom-" + session
		fail.Store(req.RequestID, true)
		code, w := rawStatus(t, cl.Base, req)
		if code != http.StatusInternalServerError || w.Code != api.CodeInternal {
			t.Fatalf("session %q: panicking solve = %d %q, want 500 %q", session, code, w.Code, api.CodeInternal)
		}
		if !strings.Contains(w.Message, req.RequestID) || !strings.Contains(w.Message, "injected solve fault") {
			t.Errorf("session %q: message %q lacks the request ID or the panic", session, w.Message)
		}
		if _, err := cl.Do(ctx, f.request("", session)); err != nil {
			t.Fatalf("session %q: solve after the panic: %v", session, err)
		}
	}
	m := svc.tr.Metrics()
	if got := m.Counter("aedd.panics").Value(); got != 2 {
		t.Errorf("aedd.panics = %d, want 2", got)
	}
	if a, c := m.Counter("aedd.admitted").Value(), m.Counter("aedd.completed").Value(); a != 4 || c != 4 {
		t.Errorf("admitted = %d, completed = %d, want 4 and 4", a, c)
	}
}
