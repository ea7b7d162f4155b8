package aed

import (
	"context"

	"github.com/aed-net/aed/internal/api"
	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/obs"
)

// Request is one complete synthesis problem as a single serializable
// value: router configs, topology, policies, objectives, and solve
// options, all in the textual formats the CLIs use. The same type
// drives in-process calls (Do), the aedd wire protocol (POST
// /v1/solve), and the aed/client package — a request built for a
// library call can be sent to a service unchanged.
//
// The zero Options value is the paper default, as everywhere else in
// the API. Tenant and Session only matter to a service: they scope
// budgets and name the server-side incremental session; Do ignores
// them.
type Request = api.Request

// SolveOptions is the serializable subset of Options a Request
// carries (see api.SolveOptions for the field docs).
type SolveOptions = api.SolveOptions

// Request-identity wire headers (see docs/SERVICE.md). The client
// package sends both on every call; aedd echoes HeaderRequestID on the
// response.
const (
	HeaderRequestID = api.HeaderRequestID
	HeaderTenant    = api.HeaderTenant
)

// NewRequestID returns a fresh request ID (16 hex characters) suitable
// for Request.RequestID. Callers that want to correlate a solve with
// server-side telemetry before sending can mint the ID themselves; the
// client package generates one automatically otherwise.
func NewRequestID() string { return api.NewRequestID() }

// Response is the serializable synthesis outcome: updated configs,
// edits, diff counts, per-instance stats, and solver totals.
// Unsatisfiable runs are reported as a *UnsatError — an error, not a
// Response — so handling is uniform across transports.
type Response = api.Response

// Service error taxonomy. These sentinels are returned by aedd (via
// aed/client) and map 1:1 to HTTP statuses; each survives the JSON
// round-trip, so errors.Is works identically for local and remote
// callers. See docs/SERVICE.md for the full error table.
var (
	// ErrQueueFull means the service's bounded request queue was at
	// capacity and the request was rejected, not queued (HTTP 429).
	ErrQueueFull = api.ErrQueueFull
	// ErrBudgetExceeded means the tenant spent its solve-time budget
	// for the current window (HTTP 402).
	ErrBudgetExceeded = api.ErrBudgetExceeded
	// ErrSessionNotFound reports an operation on an unknown session
	// name (HTTP 404).
	ErrSessionNotFound = api.ErrSessionNotFound
	// ErrInvalidRequest reports an unparseable request (HTTP 400).
	ErrInvalidRequest = api.ErrInvalidRequest
	// ErrDraining means the service is shutting down and no longer
	// admits work (HTTP 503).
	ErrDraining = api.ErrDraining
	// ErrRequestTooLarge means the request body exceeded the service's
	// size cap (HTTP 413).
	ErrRequestTooLarge = api.ErrRequestTooLarge
)

// Do synthesizes the request in process: parse every textual input,
// run SynthesizeContext, and convert the result to its wire form. It
// is the library-call twin of POSTing the request to an aedd service —
// same input value, same response type, same error taxonomy:
//
//   - invalid inputs return an error matching ErrInvalidRequest;
//   - unsatisfiable policies return a *UnsatError (errors.As);
//   - an expired ctx (or Request.TimeoutMS) returns an error matching
//     context.DeadlineExceeded.
//
// Request.Tenant and Request.Session are service concepts and are
// ignored here; use NewSession for in-process incremental solving.
//
// When req.RequestID is set, the solve runs under that request
// identity: every span, flight-recorder event, and watchdog incident of
// the run carries it, so `aedtrace -request` can isolate this call in a
// trace — same contract as the service path.
func Do(ctx context.Context, req Request) (*Response, error) {
	prob, err := req.Materialize()
	if err != nil {
		return nil, err
	}
	if req.RequestID != "" {
		ctx = obs.WithRequest(ctx, obs.RequestInfo{
			ID: req.RequestID, Tenant: req.Tenant, Session: req.Session,
		})
	}
	if prob.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, prob.Timeout)
		defer cancel()
	}
	res, err := core.SynthesizeContext(ctx, prob.Net, prob.Topo, prob.Policies, prob.Opts)
	if err != nil {
		return nil, err
	}
	if u := res.Unsat(); u != nil {
		return nil, u
	}
	return api.FromResult(res), nil
}

// FormatTopology renders a topology in the Request.Topology line
// format (router/link/subnet lines) — the inverse of the parser behind
// Request.Materialize.
func FormatTopology(t *Topology) string { return api.FormatTopology(t) }
