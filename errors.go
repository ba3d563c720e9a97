package ppc

import (
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/faults"
)

// Typed errors for the hardened System boundary. The production stance is
// that a misbehaving learner must never make a query fail or return a worse
// answer than "just call the optimizer": internal panics are recovered into
// *InternalError at the exported API surface, pipeline-stage failures
// (optimizer, plan compilation, execution) surface as *PipelineError, and
// snapshot problems as *SnapshotError. errors.As works on all three.

// InternalError reports a panic recovered at the System API boundary. It
// indicates a bug in an internal package; the System remains usable.
type InternalError struct {
	// Op is the public method that recovered the panic (e.g. "ppc.Run").
	Op string
	// Recovered is the panic value.
	Recovered any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

// Error implements error.
func (e *InternalError) Error() string {
	return fmt.Sprintf("ppc: internal panic in %s: %v", e.Op, e.Recovered)
}

// PipelineError reports a failure in one stage of the Figure-1 pipeline
// while running a query instance.
type PipelineError struct {
	// Stage is the failed stage: "optimize", "compile", "learn" or
	// "execute". "compile" is an invariant violation — Register admits only
	// templates whose plans all compile — and so is "learn": a degraded
	// run's point whose dimensionality is not its learner's.
	Stage string
	// Template is the query template being run.
	Template string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *PipelineError) Error() string {
	return fmt.Sprintf("ppc: %s %s: %v", e.Stage, e.Template, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Err }

// SnapshotError reports a persistence failure that is not recoverable by
// degrading to a cold learner (e.g. restoring onto the wrong database or a
// non-fresh System). Detected snapshot corruption is NOT an error — see
// LoadState and LoadReport.
type SnapshotError struct {
	// Op is "save" or "load".
	Op string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *SnapshotError) Error() string {
	return fmt.Sprintf("ppc: snapshot %s: %v", e.Op, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *SnapshotError) Unwrap() error { return e.Err }

// IsInjectedFault reports whether err originates from a fault injector
// (chaos tests distinguish injected failures from organic bugs).
func IsInjectedFault(err error) bool {
	return errors.Is(err, faults.ErrInjected)
}

// capturePanic converts a panic into an *InternalError on the named return.
// Usage: defer capturePanic("ppc.Run", &err). It must be deferred before
// the mutex unlock so the lock is released before the panic is absorbed.
func capturePanic(op string, errp *error) {
	if r := recover(); r != nil {
		*errp = &InternalError{Op: op, Recovered: r, Stack: debug.Stack()}
	}
}
