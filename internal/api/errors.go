package api

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"github.com/aed-net/aed/internal/core"
	"github.com/aed-net/aed/internal/policy"
	"github.com/aed-net/aed/internal/prefix"
)

// Sentinel errors of the synthesis service. Each maps 1:1 to an HTTP
// status (HTTPStatus) and to a wire code (EncodeError), and each
// survives the JSON round-trip: a client that receives the wire form
// gets back an error for which errors.Is(err, sentinel) holds, exactly
// as a library caller would. aed re-exports them as aed.ErrQueueFull
// etc.
var (
	// ErrQueueFull rejects a request because the service's bounded
	// request queue is at capacity. The request was NOT queued; retry
	// with backoff. HTTP 429.
	ErrQueueFull = errors.New("aed: request queue full")
	// ErrBudgetExceeded rejects a request because the tenant has spent
	// its solve-time budget for the current window. HTTP 402.
	ErrBudgetExceeded = errors.New("aed: tenant solve budget exceeded")
	// ErrSessionNotFound reports an operation on a session name the
	// service does not hold (e.g. DELETE of an expired session).
	// HTTP 404.
	ErrSessionNotFound = errors.New("aed: session not found")
	// ErrInvalidRequest reports an unparseable or inconsistent request
	// (bad configs, topology, policies, objectives, or options).
	// HTTP 400.
	ErrInvalidRequest = errors.New("aed: invalid request")
	// ErrDraining rejects a request because the service is shutting
	// down: admission is closed while in-flight solves drain. HTTP 503.
	ErrDraining = errors.New("aed: service draining")
	// ErrRequestTooLarge rejects a request whose body exceeds the
	// service's size cap; it was not parsed. HTTP 413.
	ErrRequestTooLarge = errors.New("aed: request body too large")
)

// Wire error codes (WireError.Code).
const (
	CodeQueueFull       = "queue_full"
	CodeBudgetExceeded  = "budget_exceeded"
	CodeSessionNotFound = "session_not_found"
	CodeInvalidRequest  = "invalid_request"
	CodeDraining        = "draining"
	CodeTooLarge        = "request_too_large"
	CodeUnsat           = "unsat"
	CodeDeadline        = "deadline_exceeded"
	CodeCanceled        = "canceled"
	CodeInternal        = "internal"
)

// WireError is the JSON error body of every non-2xx service response.
// Code selects the sentinel (or typed error) that Err reconstructs;
// Message preserves the server-side error text verbatim.
type WireError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Destinations and Conflicts carry a *core.UnsatError's structure
	// (Code "unsat"): the unsatisfiable destination prefixes and, with
	// Options.Explain, a minimal conflicting policy subset per
	// destination, both in their textual forms.
	Destinations []string            `json:"destinations,omitempty"`
	Conflicts    map[string][]string `json:"conflicts,omitempty"`
}

// EncodeError maps any error to its wire form. Unknown errors become
// Code "internal" with the message preserved.
func EncodeError(err error) WireError {
	var unsat *core.UnsatError
	switch {
	case errors.As(err, &unsat):
		w := WireError{Code: CodeUnsat, Message: err.Error()}
		for _, d := range unsat.Destinations {
			w.Destinations = append(w.Destinations, d.String())
		}
		for d, ps := range unsat.Conflicts {
			if w.Conflicts == nil {
				w.Conflicts = make(map[string][]string, len(unsat.Conflicts))
			}
			var lines []string
			for _, p := range ps {
				lines = append(lines, p.String())
			}
			sort.Strings(lines)
			w.Conflicts[d.String()] = lines
		}
		return w
	case errors.Is(err, ErrQueueFull):
		return WireError{Code: CodeQueueFull, Message: err.Error()}
	case errors.Is(err, ErrBudgetExceeded):
		return WireError{Code: CodeBudgetExceeded, Message: err.Error()}
	case errors.Is(err, ErrSessionNotFound):
		return WireError{Code: CodeSessionNotFound, Message: err.Error()}
	case errors.Is(err, ErrInvalidRequest):
		return WireError{Code: CodeInvalidRequest, Message: err.Error()}
	case errors.Is(err, ErrDraining):
		return WireError{Code: CodeDraining, Message: err.Error()}
	case errors.Is(err, ErrRequestTooLarge):
		return WireError{Code: CodeTooLarge, Message: err.Error()}
	case errors.Is(err, context.DeadlineExceeded):
		return WireError{Code: CodeDeadline, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return WireError{Code: CodeCanceled, Message: err.Error()}
	default:
		return WireError{Code: CodeInternal, Message: err.Error()}
	}
}

// Err reconstructs the typed error a library caller would have seen:
// sentinel codes yield errors matching the sentinel under errors.Is
// (with the server's message preserved), "unsat" yields a
// *core.UnsatError reconstructed from Destinations/Conflicts (matching
// errors.As), and deadline/cancel codes match the context errors.
func (w WireError) Err() error {
	switch w.Code {
	case CodeUnsat:
		u := &core.UnsatError{}
		for _, d := range w.Destinations {
			p, err := prefix.Parse(d)
			if err != nil {
				continue
			}
			u.Destinations = append(u.Destinations, p)
			if lines, ok := w.Conflicts[d]; ok {
				for _, line := range lines {
					pol, err := policy.ParseOne(line)
					if err != nil {
						continue
					}
					if u.Conflicts == nil {
						u.Conflicts = make(map[prefix.Prefix][]policy.Policy)
					}
					u.Conflicts[p] = append(u.Conflicts[p], pol)
				}
			}
		}
		return u
	case CodeQueueFull:
		return remote(w.Message, ErrQueueFull)
	case CodeBudgetExceeded:
		return remote(w.Message, ErrBudgetExceeded)
	case CodeSessionNotFound:
		return remote(w.Message, ErrSessionNotFound)
	case CodeInvalidRequest:
		return remote(w.Message, ErrInvalidRequest)
	case CodeDraining:
		return remote(w.Message, ErrDraining)
	case CodeTooLarge:
		return remote(w.Message, ErrRequestTooLarge)
	case CodeDeadline:
		return remote(w.Message, context.DeadlineExceeded)
	case CodeCanceled:
		return remote(w.Message, context.Canceled)
	default:
		if w.Message == "" {
			return fmt.Errorf("aed: service error (code %q)", w.Code)
		}
		return errors.New(w.Message)
	}
}

// remote preserves the server's message while unwrapping to the
// sentinel, so errors.Is sees the same identity on both sides of the
// wire.
func remote(msg string, cause error) error {
	if msg == "" || msg == cause.Error() {
		return cause
	}
	return &remoteError{msg: msg, cause: cause}
}

type remoteError struct {
	msg   string
	cause error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.cause }

// HTTPStatus maps an error to the service's response status. The
// mapping is 1:1 with the sentinel taxonomy; unknown errors are 500.
func HTTPStatus(err error) int {
	var unsat *core.UnsatError
	switch {
	case err == nil:
		return http.StatusOK
	case errors.As(err, &unsat):
		return http.StatusConflict // 409: the policies are unsatisfiable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests // 429: retry with backoff
	case errors.Is(err, ErrBudgetExceeded):
		return http.StatusPaymentRequired // 402: budget window exhausted
	case errors.Is(err, ErrSessionNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrRequestTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// StatusErr maps an HTTP status back to the sentinel it encodes, for
// clients that received a non-JSON error body. Returns nil for
// statuses without a sentinel.
func StatusErr(status int) error {
	switch status {
	case http.StatusTooManyRequests:
		return ErrQueueFull
	case http.StatusPaymentRequired:
		return ErrBudgetExceeded
	case http.StatusNotFound:
		return ErrSessionNotFound
	case http.StatusBadRequest:
		return ErrInvalidRequest
	case http.StatusServiceUnavailable:
		return ErrDraining
	case http.StatusRequestEntityTooLarge:
		return ErrRequestTooLarge
	case http.StatusGatewayTimeout:
		return context.DeadlineExceeded
	default:
		return nil
	}
}
