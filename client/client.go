// Package client is the Go client for an aedd synthesis service.
//
// It speaks the same Request/Response pair as the in-process aed.Do
// call, so moving a caller from the library to a service is a
// one-line change:
//
//	resp, err := aed.Do(ctx, req)            // in process
//	cl := client.New("http://aedd:7070")
//	resp, err := cl.Do(ctx, req)             // over the wire
//
// The error taxonomy survives the round-trip: errors.Is matches the
// aed sentinels (aed.ErrQueueFull, aed.ErrBudgetExceeded,
// aed.ErrSessionNotFound, aed.ErrInvalidRequest, aed.ErrDraining,
// aed.ErrRequestTooLarge) and
// the context errors, and errors.As recovers *aed.UnsatError with its
// per-destination conflict detail — exactly as a library call reports
// them. See docs/SERVICE.md for the wire contract.
package client

import (
	"context"
	"net/http"

	"github.com/aed-net/aed"
	"github.com/aed-net/aed/internal/api"
)

// Client talks to one aedd service. Create with New; the zero value is
// not usable.
type Client struct {
	c api.Client
}

// Option configures a Client.
type Option func(*Client)

// WithTenant stamps every request that doesn't name a tenant itself.
// Tenants scope server-side solve budgets and session names.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.c.Tenant = tenant }
}

// WithHTTPClient substitutes the transport (default
// http.DefaultClient).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.c.HTTP = h }
}

// New returns a client for the service rooted at base, e.g.
// "http://127.0.0.1:7070".
func New(base string, opts ...Option) *Client {
	c := &Client{c: api.Client{Base: base}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Do submits one synthesis request (POST /v1/solve) and returns the
// decoded response. Set req.Session to solve on a named server-side
// incremental session; leave it empty for a one-shot solve. When
// req.TimeoutMS is unset and ctx carries a deadline, the remaining
// time is forwarded so the server-side solve honours it too.
func (c *Client) Do(ctx context.Context, req aed.Request) (*aed.Response, error) {
	return c.c.Do(ctx, &req)
}

// SessionInfo describes one live server-side session.
type SessionInfo = api.SessionInfo

// Sessions lists the live sessions held by the service.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	return c.c.Sessions(ctx)
}

// DropSession deletes a named session belonging to the client's
// tenant. errors.Is(err, aed.ErrSessionNotFound) reports an unknown
// name.
func (c *Client) DropSession(ctx context.Context, session string) error {
	return c.c.DropSession(ctx, session)
}

// Counters fetches the service's counter metrics from /metrics, e.g.
// "session.cache.hits" or "aedd.rejected.queue_full".
func (c *Client) Counters(ctx context.Context) (map[string]int64, error) {
	return c.c.Counters(ctx)
}

// Health probes /healthz; nil means the service is accepting
// requests.
func (c *Client) Health(ctx context.Context) error {
	return c.c.Health(ctx)
}
