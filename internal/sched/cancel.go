// Cooperative cancellation: a run-scoped stop flag that workers poll at
// their scheduling points (thief loop, node entry, special-task join wait)
// and a panic sentinel that unwinds a worker's recursion back to its top
// level, where the runtime converts it into the run's failure.
//
// The flag is deliberately dumb — one atomic bool plus a first-cause slot —
// so that polling it costs a single predicted load on the zero-allocation
// hot path, and so that it works identically under the deterministic Sim
// platform (where a context watcher goroutine lives outside virtual time)
// and under Real goroutines.
package sched

import (
	"context"
	"errors"
	"sync/atomic"
)

// ErrSolutionFound is the stop cause of a first-solution run whose winner
// claimed a solution: the remaining workers unwind through the same Abort
// path a cancellation uses, but the run itself completed successfully. The
// wsrt runtime treats an Abort carrying this cause as a clean finish, not a
// failure.
var ErrSolutionFound = errors.New("sched: first solution found")

// Stop is a cooperative stop request shared by all workers of one run (or
// one resident-pool job). Signal may be called from any goroutine — a
// context watcher, a test, another worker — and is idempotent: the first
// cause wins. Workers observe it with Stopped/Check at their poll points.
// All methods are safe on a nil receiver, which behaves as "never stopped".
type Stop struct {
	fired atomic.Bool
	cause atomic.Pointer[stopCause]
}

type stopCause struct{ err error }

// Signal requests the run to stop with the given cause. The first call
// wins; later calls are no-ops. A nil err is recorded as
// context.Canceled.
func (s *Stop) Signal(err error) {
	if s == nil {
		return
	}
	if err == nil {
		err = context.Canceled
	}
	if s.cause.CompareAndSwap(nil, &stopCause{err: err}) {
		s.fired.Store(true)
	}
}

// Stopped reports whether a stop has been requested. This is the poll-point
// fast path: one atomic load (plus a nil check).
func (s *Stop) Stopped() bool {
	return s != nil && s.fired.Load()
}

// Cause returns the first Signal's error, or nil if no stop was requested.
func (s *Stop) Cause() error {
	if s == nil {
		return nil
	}
	if c := s.cause.Load(); c != nil {
		return c.err
	}
	return nil
}

// Check panics with Abort when a stop has been requested, unwinding the
// calling worker to its top-level recover. It is the standard poll point.
func (s *Stop) Check() {
	if s.Stopped() {
		panic(Abort{Err: s.Cause()})
	}
}

// Abort is the panic value scheduler internals use to unwind a worker's
// recursion: deque overflow, cooperative cancellation, deadline expiry.
// The worker's top level (inside the platform body) recovers it and records
// the error as the run's failure; it never escapes a Run call.
type Abort struct{ Err error }

// Error implements error so a stray Abort still prints usefully.
func (a Abort) Error() string {
	if a.Err == nil {
		return "sched: run aborted"
	}
	return a.Err.Error()
}

// WatchContext connects ctx to stop: when ctx is cancelled or its deadline
// expires, stop is signalled with the context's cause. It returns a release
// function that must be called when the run finishes to disarm the watch;
// like context.AfterFunc's stop, it reports whether it did. The watch is a
// context.AfterFunc, so it costs no goroutine unless it fires. A nil ctx, a
// ctx that can never be cancelled, or a nil stop costs nothing and returns
// a no-op release.
func WatchContext(ctx context.Context, stop *Stop) (release func() bool) {
	if ctx == nil || ctx.Done() == nil || stop == nil {
		return noRelease
	}
	// A context that is already done is signalled synchronously, so a run
	// submitted with a dead context aborts at its very first poll point
	// instead of racing the watch against worker start-up.
	if ctx.Err() != nil {
		stop.Signal(context.Cause(ctx))
		return noRelease
	}
	return context.AfterFunc(ctx, func() { stop.Signal(context.Cause(ctx)) })
}

func noRelease() bool { return false }
