package pedf

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"dfdbg/internal/fault"
	"dfdbg/internal/filterc"
)

// CrashError wraps a panic escaping a filter or controller body with the
// dataflow context a debugger stop event needs: the actor, its firing
// index, and the filterc backtrace captured before the stack unwound.
// The sim kernel's Proc recovery turns it into a PanicError, so a filter
// crash surfaces as a debugger stop event instead of killing the host.
type CrashError struct {
	Actor     string
	Firing    uint64
	Value     any      // the original panic value
	Backtrace []string // innermost frame first; empty for native work
}

func (e *CrashError) Error() string {
	s := fmt.Sprintf("filter %q crashed at firing %d: %v", e.Actor, e.Firing, e.Value)
	for i, fr := range e.Backtrace {
		s += fmt.Sprintf("\n  #%d %s", i, fr)
	}
	return s
}

// Unwrap exposes the original panic value when it was an error.
func (e *CrashError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// AsCrash extracts the CrashError behind an arbitrary error chain
// (typically a sim.PanicError wrapping a contained filter crash). It
// returns nil when the error does not stem from a contained crash.
func AsCrash(err error) *CrashError {
	var ce *CrashError
	if errors.As(err, &ce) {
		return ce
	}
	return nil
}

// CrashReport renders a structured report for an error caused by a
// contained actor crash: the actor, firing index, panic value,
// filterc backtrace, and nothing else. ok is false when the error is
// not a contained crash.
func CrashReport(err error) (report string, ok bool) {
	ce := AsCrash(err)
	if ce == nil {
		return "", false
	}
	s := fmt.Sprintf("contained crash report\n  actor:  %s\n  firing: %d\n  cause:  %v",
		ce.Actor, ce.Firing, ce.Value)
	for i, fr := range ce.Backtrace {
		s += fmt.Sprintf("\n  #%d %s", i, fr)
	}
	return s, true
}

// wrapCrash builds a CrashError for a panic recovered in f's process,
// capturing the filterc call stack while it is still intact.
func (rt *Runtime) wrapCrash(f *Filter, r any) *CrashError {
	e := &CrashError{Actor: f.Name, Firing: f.firings, Value: r}
	if f.interp != nil {
		for _, fr := range f.interp.Stack() {
			e.Backtrace = append(e.Backtrace,
				fmt.Sprintf("%s () at line %d", fr.FuncName(), fr.Line))
		}
	}
	if len(e.Backtrace) == 0 {
		// The interpreter unwinds its frames before an error returns;
		// reconstruct the crash site from the error's position.
		var rte *filterc.RuntimeError
		if err, ok := r.(error); ok && errors.As(err, &rte) {
			e.Backtrace = []string{fmt.Sprintf("work () at %s", rte.Pos)}
		}
	}
	if len(e.Backtrace) == 0 && f.NativeWork != nil {
		e.Backtrace = []string{"(native work)"}
	}
	return e
}

// containCrash is deferred by the filter and controller process bodies:
// it re-panics any escaping panic wrapped in a CrashError so the sim
// kernel's PanicError carries an actor-attributed backtrace. A process
// that Kernel.Shutdown poisoned is not crashing but being torn down,
// and the kernel discards whatever it unwinds with, so its unwind goes
// on unrecovered: a shutdown builds no crash reports.
func (rt *Runtime) containCrash(f *Filter) {
	if f.proc.Poisoned() {
		return
	}
	if f.lazyStmts > 0 {
		// A crash unwound past banked lazy compute time; settle it so
		// the crash timestamp is the true simulated instant.
		f.flushLazy()
	}
	if r := recover(); r != nil {
		if _, ok := r.(*CrashError); ok {
			panic(r)
		}
		panic(rt.wrapCrash(f, r))
	}
}

// FaultTargets enumerates the injectable surface of the elaborated
// application, for fault.Generate: link labels, filter names, the PEs
// filters are placed on, and filter/controller process names.
func (rt *Runtime) FaultTargets() fault.Targets {
	t := fault.Targets{
		Links:   make([]string, 0, len(rt.links)),
		Filters: make([]string, 0, len(rt.actorList)),
		Procs:   make([]string, 0, len(rt.actorList)),
		PEs:     make([]int, 0, len(rt.actorList)),
	}
	for _, l := range rt.links {
		t.Links = append(t.Links, l.Label())
	}
	for _, f := range rt.actorList {
		// Actor process names do not wait for the spawn (see
		// procName), so the targets are complete even pre-run.
		t.Procs = append(t.Procs, f.procName())
		if f.Role == RoleController {
			continue
		}
		t.Filters = append(t.Filters, f.Name)
		if f.PE != nil && !slices.Contains(t.PEs, f.PE.ID) {
			t.PEs = append(t.PEs, f.PE.ID)
		}
	}
	sort.Strings(t.Links)
	sort.Strings(t.Filters)
	sort.Strings(t.Procs)
	sort.Ints(t.PEs)
	return t
}
