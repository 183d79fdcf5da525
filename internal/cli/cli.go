// Package cli implements the interactive command interpreter of the
// proof-of-concept debugger: a GDB-style command line where the classic
// low-level commands (break, watch, step, next, finish, print, list,
// backtrace, info threads) coexist with the dataflow commands of the
// paper's case study (Section VI):
//
//	graph
//	filter <name> catch work
//	filter <name> catch <iface>=<n>[,<iface>=<n>] | catch *in=<n>
//	filter <name> catch scheduled
//	filter <name> configure splitter|joiner|map
//	filter <name> info last_token
//	filter <name> print last_token
//	module <name> catch step [end]
//	iface <actor>::<port> record | norecord | print
//	step_both [<actor>::<port>]
//	inject | drop | replace | peek (token alteration)
//	info filters | links | scheduling <module> | breakpoints | threads
//	set data-breakpoints on|off (intrusiveness mitigation option 1)
//
// Names used in commands autocomplete from the reconstructed graph, as
// the paper highlights.
package cli

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"dfdbg/internal/analysis"
	"dfdbg/internal/analysis/absint"
	"dfdbg/internal/core"
	"dfdbg/internal/fault"
	"dfdbg/internal/filterc"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/obs"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
	"dfdbg/internal/trace"
)

// CLI is one interactive debugging session.
type CLI struct {
	D   *core.Debugger
	Low *lowdbg.Debugger
	Out io.Writer
	// Rec is unused: the `trace` commands fold Obs. perfbench's
	// hand-built world still assigns it; ROADMAP item 2 deletes it with
	// that world.
	Rec *trace.Recorder
	// Obs, when set, enables the observability commands: `metrics`,
	// `profile` and `timeline export`, and, when it renders payloads,
	// `trace`.
	Obs *obs.Recorder
	// Targets, when set, lets `fault gen <seed>` draw random faults
	// against the running application's links/filters/PEs.
	Targets fault.Targets
	// Full, when set, runs the full static analysis (graph checkers,
	// filterc checkers, abstract-interpretation classifier, SDF regions)
	// against the live application; `analyze` and `regions` prefer it
	// over the structural-only pass on the reconstructed model.
	Full func() (*analysis.Report, *analysis.Graph, error)
	// Guard, when set, is held for the duration of every Dispatch: web
	// queries (and any other concurrent reader) take the same lock, so
	// commands that mutate the simulation serialize against them.
	Guard sync.Locker
	// StartWeb, when set, enables the `web` command: it starts the HTTP
	// observability UI on the given address and returns the bound URL.
	StartWeb func(addr string) (string, error)
	// HostFiles, when set, lets `fault load FILE` read and `timeline
	// export FILE` write the host's files. Like StartWeb it is the
	// owner's to grant: the dfdbg REPL grants it, while served and chaos
	// sessions leave it off, so a client's command line never reaches
	// the server's files.
	HostFiles bool
	// Batch, when set, enables the `batch` command: it reports the
	// batched-execution mode of every proven-SDF region (hold reason plus
	// per-region batched/per-token state, pedf.Runtime.RegionModes).
	Batch func() (hold string, regions []pedf.RegionMode)
	// Ckpt, when set, enables the checkpoint/restore/reverse-execution
	// commands (DESIGN §13). See CkptHooks.
	Ckpt *CkptHooks

	lastStop *lowdbg.StopEvent
	curProc  *sim.Proc
	vals     []filterc.Value // $1, $2, ... convenience value history
	quit     bool

	// dispatchStop collects the structured stop of the command being
	// dispatched (set by reportStop, harvested by Dispatch).
	dispatchStop *StopInfo
}

// Result is the structured outcome of one dispatched command: what a
// protocol handler serializes onto the wire and what the REPL renders.
// Output is the full human-readable text the command produced; Err is
// the command error (nil on success); Stop is set when the command
// resumed execution and the target stopped again.
type Result struct {
	Output string
	Err    error
	Quit   bool      // the session asked to end
	Stop   *StopInfo // execution stop, for continue/step/next/finish
}

// StopInfo is the structured form of a lowdbg.StopEvent for API
// clients: enough to drive a UI (kind, position, context process) and
// to route stall/deadlock handling without parsing the rendered text.
type StopInfo struct {
	Kind     string `json:"kind"`
	Reason   string `json:"reason"`
	Proc     string `json:"proc,omitempty"`
	Fn       string `json:"fn,omitempty"`
	File     string `json:"file,omitempty"`
	Line     int    `json:"line,omitempty"`
	TimeNS   uint64 `json:"time_ns"`
	Stalled  bool   `json:"stalled,omitempty"`
	Deadlock bool   `json:"deadlock,omitempty"`
	Done     bool   `json:"done,omitempty"`
	// Crash is set when the stop was caused by a contained actor crash
	// (a pedf.CrashError behind the kernel's panic recovery) — the
	// session supervisor keys its recovery path on it.
	Crash *CrashInfo `json:"crash,omitempty"`
}

// CrashInfo is the structured form of a contained actor crash.
type CrashInfo struct {
	Actor     string   `json:"actor"`
	Firing    uint64   `json:"firing"`
	Cause     string   `json:"cause"`
	Backtrace []string `json:"backtrace,omitempty"`
}

// New creates a session writing its output to out.
func New(d *core.Debugger, out io.Writer) *CLI {
	return &CLI{D: d, Low: d.Low, Out: out}
}

// Quit reports whether the user asked to leave.
func (c *CLI) Quit() bool { return c.quit }

func (c *CLI) printf(format string, args ...any) {
	fmt.Fprintf(c.Out, format, args...)
}

// Run reads commands from r until EOF or quit, printing the "(gdb)"
// prompt the paper's transcripts use. The REPL is one client of the
// Dispatch API: it renders each Result's output and error to c.Out,
// exactly as a remote protocol handler renders them onto the wire.
func (c *CLI) Run(r io.Reader) {
	sc := bufio.NewScanner(r)
	for {
		fmt.Fprintf(c.Out, "(gdb) ")
		if !sc.Scan() {
			fmt.Fprintf(c.Out, "\n")
			return
		}
		res := c.Dispatch(sc.Text())
		io.WriteString(c.Out, res.Output)
		if res.Err != nil {
			fmt.Fprintf(c.Out, "error: %v\n", res.Err)
		}
		if res.Quit {
			return
		}
	}
}

// needFiles refuses verb, naming why, unless the owner granted
// HostFiles.
func (c *CLI) needFiles(verb string) error {
	if !c.HostFiles {
		return fmt.Errorf("%s: this session has no access to the host's files "+
			"(a served session never reads or writes the server's)", verb)
	}
	return nil
}

// Dispatch runs a single command line as a pure API call: the rendered
// output and the error come back in the Result instead of being written
// to c.Out, so any client — the REPL, a wire-protocol session, a test —
// decides for itself what to do with them. File commands reach the
// file system only when the owner granted HostFiles.
func (c *CLI) Dispatch(line string) Result {
	if c.Guard != nil {
		c.Guard.Lock()
		defer c.Guard.Unlock()
	}
	var buf strings.Builder
	prev := c.Out
	c.Out = &buf
	c.dispatchStop = nil
	err := c.Execute(line)
	c.Out = prev
	return Result{
		Output: buf.String(),
		Err:    err,
		Quit:   c.quit,
		Stop:   c.dispatchStop,
	}
}

// Execute runs a single command line.
func (c *CLI) Execute(line string) error {
	words := strings.Fields(line)
	if len(words) == 0 {
		return nil
	}
	cmd, rest := words[0], words[1:]
	switch cmd {
	case "quit", "q":
		c.quit = true
		return nil
	case "help":
		c.printHelp()
		return nil
	case "continue", "c":
		return c.reportStop(c.Low.Continue())
	case "step", "s":
		return c.stepCmd(c.Low.Step)
	case "next", "n":
		return c.stepCmd(c.Low.Next)
	case "finish":
		return c.stepCmd(c.Low.FinishStep)
	case "break", "b":
		return c.breakCmd(rest, false)
	case "tbreak":
		return c.breakCmd(rest, true)
	case "watch":
		if len(rest) != 1 {
			return fmt.Errorf("usage: watch <data-symbol>")
		}
		w, err := c.Low.Watch(rest[0])
		if err != nil {
			return err
		}
		c.printf("Watchpoint %d: %s\n", w.ID, w.Sym)
		return nil
	case "delete":
		return c.deleteCmd(rest)
	case "print", "p":
		return c.printCmd(strings.Join(rest, " "))
	case "list", "l":
		return c.listCmd(rest)
	case "backtrace", "bt":
		return c.backtraceCmd()
	case "thread":
		return c.threadCmd(rest)
	case "info":
		return c.infoCmd(rest)
	case "graph":
		c.printf("%s", c.D.GraphDOT())
		return nil
	case "analyze":
		return c.analyzeCmd(rest)
	case "regions":
		return c.regionsCmd(rest)
	case "batch":
		return c.batchCmd(rest)
	case "filter":
		return c.filterCmd(rest)
	case "module":
		return c.moduleCmd(rest)
	case "iface":
		return c.ifaceCmd(rest)
	case "step_both":
		return c.stepBothCmd(rest)
	case "inject":
		return c.injectCmd(rest)
	case "drop":
		return c.dropCmd(rest)
	case "replace":
		return c.replaceCmd(rest)
	case "peek":
		return c.peekCmd(rest)
	case "catchpoints":
		for _, cp := range c.D.Catchpoints() {
			c.printf("%s\n", cp)
		}
		return nil
	case "enable":
		return c.enableCmd(rest, true)
	case "disable":
		return c.enableCmd(rest, false)
	case "set":
		return c.setCmd(rest)
	case "trace":
		return c.traceCmd(rest)
	case "metrics":
		return c.metricsCmd(rest)
	case "profile":
		return c.profileCmd(rest)
	case "timeline":
		return c.timelineCmd(rest)
	case "checkpoint":
		return c.ckptSaveCmd(rest)
	case "checkpoints":
		return c.ckptListCmd(rest)
	case "restore":
		return c.ckptRestoreCmd(rest)
	case "reverse-step":
		return c.reverseStepCmd(rest)
	case "reverse-continue":
		return c.reverseContinueCmd(rest)
	case "fault":
		return c.faultCmd(rest)
	case "unstick":
		return c.unstickCmd(rest)
	case "watchdog":
		return c.watchdogCmd(rest)
	case "web":
		return c.webCmd(rest)
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
}

// analyzeCmd runs the graph analyzers over the reconstructed model.
// Rates are unknown at this layer, so the rate-based checks stay quiet;
// dangling ports, arity mismatches and under-initialized cycles (with
// current link occupancies as initial tokens) do fire — pointing at the
// structural cause of an observed stall.
func (c *CLI) analyzeCmd(rest []string) error {
	asJSON := false
	switch {
	case len(rest) == 0:
	case len(rest) == 1 && rest[0] == "json":
		asJSON = true
	default:
		return fmt.Errorf("usage: analyze [json]")
	}
	var rep *analysis.Report
	if c.Full != nil {
		full, _, err := c.Full()
		if err != nil {
			return err
		}
		rep = full
	} else {
		rep = analysis.CheckGraph(c.D.AnalysisGraph())
	}
	if asJSON {
		return rep.WriteJSON(c.Out)
	}
	rep.WriteText(c.Out)
	return nil
}

// regionsCmd renders the SDF-region clustering of the application as a
// Graphviz DOT graph: provably static actors grouped into clusters with
// their repetition counts, dynamic actors outside.
func (c *CLI) regionsCmd(rest []string) error {
	if len(rest) != 0 {
		return fmt.Errorf("usage: regions")
	}
	if c.Full == nil {
		return fmt.Errorf("regions needs the full analysis backend (not available in this session)")
	}
	rep, g, err := c.Full()
	if err != nil {
		return err
	}
	classes := map[string]*absint.Class{}
	for _, cl := range rep.Classes {
		classes[cl.Actor] = cl
	}
	c.printf("%s", analysis.RegionsDOT(g, rep.Regions, classes))
	return nil
}

// batchCmd reports the batched-execution mode of every proven-SDF
// region: whether it currently runs schedule-driven or per-token, and
// the demotion reason (anything armed that can stop the run, or a fault
// plan, forces the per-token path; see DESIGN §12).
func (c *CLI) batchCmd(rest []string) error {
	if len(rest) != 0 {
		return fmt.Errorf("usage: batch")
	}
	if c.Batch == nil {
		return fmt.Errorf("batched execution is not wired on this session")
	}
	hold, regions := c.Batch()
	if len(regions) == 0 {
		c.printf("no batchable regions (batched engine not enabled or nothing proven SDF)\n")
		return nil
	}
	if hold != "" { // only perfbench's hand-built world reports a hold
		c.printf("global hold: %s\n", hold)
	}
	for _, r := range regions {
		mode := "batched"
		if !r.Batched {
			mode = fmt.Sprintf("per-token (%s)", r.Reason)
		}
		c.printf("region %d [%s]: %s\n", r.Region, strings.Join(r.Actors, " "), mode)
		if len(r.Schedule) > 0 {
			c.printf("  schedule: %s\n", strings.Join(r.Schedule, " "))
		}
	}
	return nil
}

func (c *CLI) printHelp() {
	c.printf(`Low-level commands:
  continue | step | next | finish        execution control
  break <sym> | break <file>:<line>      breakpoints (tbreak = temporary)
  watch <data-symbol>                    software watchpoint
  print <expr>                           print a local, object or $N value
  list [<file>:<line>]                   show source
  backtrace | info threads | thread <n>  context inspection
  delete <id> | info breakpoints
Dataflow commands:
  graph                                  dump the reconstructed graph (DOT)
  analyze [json]                         static checks on the reconstructed graph
  regions                                SDF-region clustering (DOT; full analysis only)
  batch                                  batched-execution mode per SDF region
  filter <f> catch work                  stop when <f>'s WORK fires
  filter <f> catch <if>=<n>,...          stop on received/sent token counts
  filter <f> catch *in=<n> | *out=<n>    wildcard over all interfaces
  filter <f> catch scheduled             stop when the controller starts <f>
  filter <f> configure <behavior>        splitter | joiner | map
  filter <f> info last_token | state     token path / full actor state
  filter <f> print last_token            token value (two-level debugging)
  filter <f> watch <data>                watchpoint on private data/attribute
  filter <f> freeze | thaw               block / release one execution path
  module <m> catch step [end]            stop at step boundaries
  iface <a>::<p> record|norecord|print   token content recording
  iface <a>::<p> catch [<field>=]<v>     stop on matching token content
  info iface <a>::<p>                    one interface's counters
  step_both [<a>::<p>]                   double breakpoint on a link
  inject <a>::<p> <value>                insert a token (untie deadlocks)
  drop <a>::<p> <idx> | replace ... <v>  delete / modify pending tokens
  peek <a>::<p> <idx>                    read a pending token
  info filters|links|scheduling <m>      dataflow state overview
  catchpoints | delete catch <id>        manage dataflow catchpoints
  enable|disable [catch] <id>            toggle break/watch/catchpoints
  set data-breakpoints on|off            mitigation option 1
  trace [n | balance | activity]         offline event-trace analysis
Observability commands:
  metrics [prom]                         metrics registry (text or Prometheus)
  profile [n | folded]                   simulated-time profile of the run
  timeline export <file>                 Chrome trace / Perfetto JSON ("-" = stdout)
  web [<addr>]                           start the browser UI (default 127.0.0.1:0)
Fault injection & recovery:
  fault status|list|trace|clear          inspect / disarm the fault plan
  fault load <file> | add <spec...>      arm deterministic faults
  fault gen <seed>                       arm a seeded random plan
  fault disarm <spec...>                 defuse one pending fault by spec
  watchdog <dur>|off                     progress watchdog (stall detector)
  unstick [apply]                        propose / apply deadlock token surgery
Checkpoint & reverse execution:
  checkpoint [<label>]                   capture a replay-verified checkpoint
  checkpoints                            list retained checkpoints
  restore [<id>]                         restore a checkpoint (default latest)
  reverse-step                           undo the last control command
  reverse-continue                       rewind to the latest checkpoint
`)
}

// reportStop prints a stop event and the dataflow layer's announcements,
// and records the structured form for Dispatch clients.
func (c *CLI) reportStop(ev *lowdbg.StopEvent) error {
	for _, l := range c.D.DrainLog() {
		c.printf("%s\n", l)
	}
	c.lastStop = ev
	c.dispatchStop = stopInfo(ev, uint64(c.Low.K.Now()))
	if ev == nil {
		return nil
	}
	if ev.Proc != nil {
		c.curProc = ev.Proc
	}
	c.printf("%s\n", ev.Reason)
	if ev.Deadlock != nil || ev.Stall != nil {
		c.printStallDetail(ev)
	}
	if ev.Pos.Line > 0 {
		if src := c.Low.SourceLine(ev.Pos.File, ev.Pos.Line); src != "" {
			c.printf("%d\t%s\n", ev.Pos.Line, src)
		}
	}
	return nil
}

// stopInfo converts a stop event to its wire form (nil stays nil).
func stopInfo(ev *lowdbg.StopEvent, now uint64) *StopInfo {
	if ev == nil {
		return nil
	}
	si := &StopInfo{
		Kind:     ev.Kind.String(),
		Reason:   ev.Reason,
		Fn:       ev.Fn,
		File:     ev.Pos.File,
		Line:     ev.Pos.Line,
		TimeNS:   now,
		Stalled:  ev.Stall != nil,
		Deadlock: ev.Deadlock != nil,
		Done:     ev.Kind == lowdbg.StopDone,
	}
	if ev.Proc != nil {
		si.Proc = ev.Proc.Name()
	}
	if ce := pedf.AsCrash(ev.Err); ce != nil {
		si.Crash = &CrashInfo{
			Actor:     ce.Actor,
			Firing:    ce.Firing,
			Cause:     fmt.Sprintf("%v", ce.Value),
			Backtrace: append([]string(nil), ce.Backtrace...),
		}
	}
	return si
}

func (c *CLI) stepCmd(fn func(*sim.Proc) *lowdbg.StopEvent) error {
	if c.curProc == nil {
		return fmt.Errorf("no current execution context (continue first)")
	}
	return c.reportStop(fn(c.curProc))
}

func (c *CLI) breakCmd(rest []string, temp bool) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: break <symbol> | break <file>:<line>")
	}
	loc := rest[0]
	if file, line, ok := splitLoc(loc); ok {
		var bp *lowdbg.Breakpoint
		var err error
		if temp {
			bp, err = c.Low.BreakLineTemporary(file, line)
		} else {
			bp, err = c.Low.BreakLine(file, line)
		}
		if err != nil {
			return err
		}
		c.printf("Breakpoint %d at %s:%d\n", bp.ID, bp.File, bp.Line)
		return nil
	}
	bp, err := c.Low.BreakFunc(loc)
	if err != nil {
		return err
	}
	bp.Temporary = temp
	c.printf("Breakpoint %d at %s\n", bp.ID, bp.Sym)
	return nil
}

func splitLoc(loc string) (string, int, bool) {
	i := strings.LastIndex(loc, ":")
	if i <= 0 {
		return "", 0, false
	}
	line, err := strconv.Atoi(loc[i+1:])
	if err != nil {
		return "", 0, false
	}
	return loc[:i], line, true
}

func (c *CLI) deleteCmd(rest []string) error {
	if len(rest) == 2 && rest[0] == "catch" {
		id, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad catchpoint id %q", rest[1])
		}
		return c.D.DeleteCatch(id)
	}
	if len(rest) != 1 {
		return fmt.Errorf("usage: delete <id> | delete catch <id>")
	}
	id, err := strconv.Atoi(rest[0])
	if err != nil {
		return fmt.Errorf("bad breakpoint id %q", rest[0])
	}
	if err := c.Low.DeleteBp(id); err == nil {
		return nil
	}
	return c.Low.DeleteWatch(id)
}

func (c *CLI) printCmd(expr string) error {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return fmt.Errorf("usage: print <expr>")
	}
	// $N history reference.
	if strings.HasPrefix(expr, "$") {
		n, err := strconv.Atoi(expr[1:])
		if err != nil || n < 1 || n > len(c.vals) {
			return fmt.Errorf("no value %s", expr)
		}
		c.storeVal(c.vals[n-1])
		return nil
	}
	v, err := c.Low.PrintExpr(c.curProc, expr)
	if err != nil {
		return err
	}
	c.storeVal(v)
	return nil
}

// storeVal appends to the $ history and prints "$N = value".
func (c *CLI) storeVal(v filterc.Value) {
	c.vals = append(c.vals, v)
	c.printf("$%d = %s\n", len(c.vals), formatValue(v))
}

func formatValue(v filterc.Value) string {
	if v.Type != nil && v.Type.Kind == filterc.KStruct {
		return "(" + v.Type.Name + ")" + v.String()
	}
	if v.Type != nil && v.Type.Kind == filterc.KScalar && v.IsScalar() {
		return fmt.Sprintf("(%s) %d", v.Type.Base, v.I)
	}
	return v.String()
}

func (c *CLI) listCmd(rest []string) error {
	var file string
	var line int
	switch {
	case len(rest) == 1:
		var ok bool
		if file, line, ok = splitLoc(rest[0]); !ok {
			return fmt.Errorf("usage: list <file>:<line>")
		}
	case c.lastStop != nil && c.lastStop.Pos.Line > 0:
		file, line = c.lastStop.Pos.File, c.lastStop.Pos.Line
	default:
		return fmt.Errorf("no source context; use list <file>:<line>")
	}
	printed := false
	for l := line - 2; l <= line+3; l++ {
		if l < 1 {
			continue
		}
		src := c.Low.SourceLine(file, l)
		if src == "" && l > line {
			break // past the end of the file
		}
		c.printf("%d\t%s\n", l, src)
		printed = true
	}
	if !printed {
		return fmt.Errorf("no source registered for %s", file)
	}
	return nil
}

func (c *CLI) backtraceCmd() error {
	if c.curProc == nil {
		return fmt.Errorf("no current execution context")
	}
	frames := c.Low.FramesFor(c.curProc)
	if len(frames) == 0 {
		return fmt.Errorf("no source-level frames for %s", c.curProc.Name())
	}
	for i, fr := range frames {
		c.printf("#%d  %s () at line %d\n", i, fr.FuncName(), fr.Line)
	}
	return nil
}

func (c *CLI) threadCmd(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: thread <id>")
	}
	id, err := strconv.Atoi(rest[0])
	if err != nil {
		return fmt.Errorf("bad thread id %q", rest[0])
	}
	for _, p := range c.Low.Threads() {
		if p.ID() == id {
			c.curProc = p
			c.printf("[Switching to %s]\n", p)
			return nil
		}
	}
	return fmt.Errorf("no thread %d", id)
}

// appendFilterInfo appends one `info filters` row, the rendering of
// fmt's "%-10s %-16s %-14s firings=%-5d" plus the optional line and
// blocked-on suffixes. It is the first command a session typically runs
// after a long continue, and the per-token path no longer keeps fmt's
// code warm, so the row is built without it.
func appendFilterInfo(b []byte, fi core.FilterInfo) []byte {
	b = appendPadded(b, fi.Kind.String(), 10)
	b = append(b, ' ')
	b = appendPadded(b, fi.Name, 16)
	b = append(b, ' ')
	b = appendPadded(b, fi.State.String(), 14)
	b = append(b, " firings="...)
	start := len(b)
	b = strconv.AppendUint(b, fi.Firings, 10)
	for len(b)-start < 5 {
		b = append(b, ' ')
	}
	if fi.Line > 0 {
		b = append(b, "  line "...)
		b = strconv.AppendInt(b, int64(fi.Line), 10)
	}
	if fi.BlockedOn != "" {
		b = append(b, "  blocked on "...)
		b = append(b, fi.BlockedOn...)
	}
	return append(b, '\n')
}

// appendPadded appends s left-justified in a field of width runes, as
// fmt's %-*s does.
func appendPadded(b []byte, s string, width int) []byte {
	b = append(b, s...)
	for n := utf8.RuneCountInString(s); n < width; n++ {
		b = append(b, ' ')
	}
	return b
}

func (c *CLI) infoCmd(rest []string) error {
	if len(rest) == 0 {
		return fmt.Errorf("usage: info filters|links|tokens|scheduling <m>|breakpoints|threads")
	}
	switch rest[0] {
	case "filters":
		infos := c.D.InfoFilters()
		b := make([]byte, 0, 80*len(infos))
		for _, fi := range infos {
			b = appendFilterInfo(b, fi)
		}
		c.Out.Write(b)
		return nil
	case "links", "tokens":
		c.printf("%s", c.D.TokensReport())
		return nil
	case "scheduling":
		if len(rest) != 2 {
			return fmt.Errorf("usage: info scheduling <module>")
		}
		rep, err := c.D.SchedulingReport(rest[1])
		if err != nil {
			return err
		}
		c.printf("%s", rep)
		return nil
	case "iface":
		if len(rest) != 2 {
			return fmt.Errorf("usage: info iface <actor>::<port>")
		}
		conn, err := c.D.Connection(rest[1])
		if err != nil {
			return err
		}
		c.printf("%s\n", conn)
		c.printf("  received=%d sent=%d recording=%v\n", conn.Received, conn.Sent, conn.Recording)
		if conn.Link != nil {
			c.printf("  link: %s\n", conn.Link)
		}
		if tok := conn.LastToken(); tok != nil {
			c.printf("  last token: %s\n", tok.Hop.String())
		}
		return nil
	case "breakpoints":
		for _, bp := range c.Low.Breakpoints() {
			c.printf("%s\n", bp)
		}
		for _, w := range c.Low.Watchpoints() {
			c.printf("%s\n", w)
		}
		for _, cp := range c.D.Catchpoints() {
			c.printf("%s\n", cp)
		}
		return nil
	case "threads":
		for _, p := range c.Low.Threads() {
			cur := " "
			if p == c.curProc {
				cur = "*"
			}
			c.printf("%s %d  %-24s %s\n", cur, p.ID(), p.Name(), p.State())
		}
		return nil
	default:
		return fmt.Errorf("unknown info topic %q", rest[0])
	}
}

func (c *CLI) filterCmd(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: filter <name> catch|configure|info|print ...")
	}
	name := rest[0]
	switch rest[1] {
	case "catch":
		if len(rest) < 3 {
			return fmt.Errorf("usage: filter %s catch work|scheduled|<iface>=<n>,...", name)
		}
		spec := strings.Join(rest[2:], "")
		switch spec {
		case "work":
			cp, err := c.D.CatchWorkOf(name)
			if err != nil {
				return err
			}
			c.printf("Catchpoint %d (work of filter %s)\n", cp.ID, name)
			return nil
		case "scheduled":
			cp, err := c.D.CatchScheduledOf(name)
			if err != nil {
				return err
			}
			c.printf("Catchpoint %d (scheduling of filter %s)\n", cp.ID, name)
			return nil
		default:
			conds, err := parseTokenConds(spec)
			if err != nil {
				return err
			}
			cp, err := c.D.CatchTokensOf(name, conds)
			if err != nil {
				return err
			}
			c.printf("Catchpoint %d (%s tokens of filter %s: %s)\n", cp.ID, cp.Kind, name, cp.Spec)
			return nil
		}
	case "configure":
		if len(rest) != 3 {
			return fmt.Errorf("usage: filter %s configure splitter|joiner|map", name)
		}
		b, err := core.ParseBehavior(rest[2])
		if err != nil {
			return err
		}
		if err := c.D.ConfigureBehavior(name, b); err != nil {
			return err
		}
		c.printf("Filter %s configured as %s\n", name, b)
		return nil
	case "info":
		if len(rest) == 3 && rest[2] == "state" {
			rep, err := c.D.ActorReport(name)
			if err != nil {
				return err
			}
			c.printf("%s", rep)
			return nil
		}
		if len(rest) != 3 || rest[2] != "last_token" {
			return fmt.Errorf("usage: filter %s info last_token|state", name)
		}
		tok, err := c.D.LastToken(name)
		if err != nil {
			return err
		}
		c.printf("%s", tok.FormatPath())
		return nil
	case "freeze":
		if err := c.D.FreezeActor(name); err != nil {
			return err
		}
		for _, l := range c.D.DrainLog() {
			c.printf("%s\n", l)
		}
		return nil
	case "thaw":
		if err := c.D.ThawActor(name); err != nil {
			return err
		}
		for _, l := range c.D.DrainLog() {
			c.printf("%s\n", l)
		}
		return nil
	case "watch":
		if len(rest) != 3 {
			return fmt.Errorf("usage: filter %s watch <data-or-attribute>", name)
		}
		sym, err := c.D.DataSymbolFor(name, rest[2])
		if err != nil {
			return err
		}
		w, err := c.Low.Watch(sym)
		if err != nil {
			return err
		}
		c.printf("Watchpoint %d: %s (%s.%s)\n", w.ID, sym, name, rest[2])
		return nil
	case "print":
		if len(rest) != 3 || rest[2] != "last_token" {
			return fmt.Errorf("usage: filter %s print last_token", name)
		}
		tok, err := c.D.LastToken(name)
		if err != nil {
			return err
		}
		c.storeVal(tok.Hop.Val)
		return nil
	default:
		return fmt.Errorf("unknown filter subcommand %q", rest[1])
	}
}

// parseTokenConds parses "Pipe_in=1,Hwcfg_in=1" or "*in=1".
func parseTokenConds(spec string) (map[string]uint64, error) {
	conds := make(map[string]uint64)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		n := uint64(1)
		if len(kv) == 2 {
			v, err := strconv.ParseUint(kv[1], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad token count %q", kv[1])
			}
			n = v
		}
		conds[kv[0]] = n
	}
	if len(conds) == 0 {
		return nil, fmt.Errorf("empty token condition")
	}
	return conds, nil
}

func (c *CLI) moduleCmd(rest []string) error {
	if len(rest) < 3 || rest[1] != "catch" || rest[2] != "step" {
		return fmt.Errorf("usage: module <name> catch step [end]")
	}
	atEnd := len(rest) == 4 && rest[3] == "end"
	cp, err := c.D.CatchStepOf(rest[0], atEnd)
	if err != nil {
		return err
	}
	c.printf("Catchpoint %d (%s of module %s)\n", cp.ID, cp.Spec, rest[0])
	return nil
}

func (c *CLI) ifaceCmd(rest []string) error {
	if len(rest) < 2 {
		return fmt.Errorf("usage: iface <actor>::<port> record|norecord|print|catch <cond>")
	}
	q := rest[0]
	if rest[1] == "catch" {
		return c.ifaceCatchContent(q, rest[2:])
	}
	if len(rest) != 2 {
		return fmt.Errorf("usage: iface <actor>::<port> record|norecord|print|catch <cond>")
	}
	switch rest[1] {
	case "record":
		if err := c.D.SetRecording(q, true); err != nil {
			return err
		}
		c.printf("Recording tokens on %s\n", q)
		return nil
	case "norecord":
		if err := c.D.SetRecording(q, false); err != nil {
			return err
		}
		c.printf("Stopped recording on %s\n", q)
		return nil
	case "print":
		out, err := c.D.FormatRecorded(q)
		if err != nil {
			return err
		}
		c.printf("%s", out)
		return nil
	default:
		return fmt.Errorf("unknown iface subcommand %q", rest[1])
	}
}

// ifaceCatchContent implements `iface <q> catch [<field>=]<value>`: a
// token-content condition on a received token (Section III's conditional
// breakpoints on token content). Scalar tokens match on their value;
// struct tokens on the named field.
func (c *CLI) ifaceCatchContent(q string, rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: iface %s catch [<field>=]<value>", q)
	}
	spec := rest[0]
	field := ""
	valText := spec
	if i := strings.Index(spec, "="); i > 0 {
		field = spec[:i]
		valText = spec[i+1:]
	} else if i == 0 {
		valText = spec[1:]
	}
	want, err := strconv.ParseInt(valText, 0, 64)
	if err != nil {
		return fmt.Errorf("bad content value %q", valText)
	}
	pred := func(v filterc.Value) bool {
		if field == "" {
			return v.IsScalar() && v.I == want
		}
		if v.Type == nil || v.Type.Kind != filterc.KStruct {
			return false
		}
		fi := v.Type.FieldIndex(field)
		return fi >= 0 && v.Elems[fi].IsScalar() && v.Elems[fi].I == want
	}
	cp, err := c.D.CatchContentOf(q, spec, pred)
	if err != nil {
		return err
	}
	c.printf("Catchpoint %d (content %s on %s)\n", cp.ID, spec, q)
	return nil
}

func (c *CLI) stepBothCmd(rest []string) error {
	var err error
	if len(rest) == 1 {
		err = c.D.StepBoth(rest[0])
	} else {
		err = c.D.StepBothAuto(c.lastStop)
	}
	if err != nil {
		return err
	}
	for _, l := range c.D.DrainLog() {
		c.printf("%s\n", l)
	}
	return nil
}

// parseTokenValue parses an integer token payload with an optional type
// prefix, e.g. "41" or "u16:41".
func parseTokenValue(s string) (filterc.Value, error) {
	base := filterc.U32
	if i := strings.Index(s, ":"); i > 0 {
		b, ok := filterc.BaseTypeByName(s[:i])
		if !ok {
			return filterc.Value{}, fmt.Errorf("unknown token type %q", s[:i])
		}
		base = b
		s = s[i+1:]
	}
	n, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return filterc.Value{}, fmt.Errorf("bad token value %q", s)
	}
	return filterc.Int(base, n), nil
}

func (c *CLI) injectCmd(rest []string) error {
	if len(rest) != 2 {
		return fmt.Errorf("usage: inject <actor>::<port> <value>")
	}
	v, err := parseTokenValue(rest[1])
	if err != nil {
		return err
	}
	if err := c.D.InjectToken(rest[0], v); err != nil {
		return err
	}
	for _, l := range c.D.DrainLog() {
		c.printf("%s\n", l)
	}
	return nil
}

func (c *CLI) dropCmd(rest []string) error {
	if len(rest) != 2 {
		return fmt.Errorf("usage: drop <actor>::<port> <index>")
	}
	idx, err := strconv.Atoi(rest[1])
	if err != nil {
		return fmt.Errorf("bad index %q", rest[1])
	}
	if err := c.D.DropToken(rest[0], idx); err != nil {
		return err
	}
	for _, l := range c.D.DrainLog() {
		c.printf("%s\n", l)
	}
	return nil
}

func (c *CLI) replaceCmd(rest []string) error {
	if len(rest) != 3 {
		return fmt.Errorf("usage: replace <actor>::<port> <index> <value>")
	}
	idx, err := strconv.Atoi(rest[1])
	if err != nil {
		return fmt.Errorf("bad index %q", rest[1])
	}
	v, err := parseTokenValue(rest[2])
	if err != nil {
		return err
	}
	if err := c.D.ReplaceToken(rest[0], idx, v); err != nil {
		return err
	}
	for _, l := range c.D.DrainLog() {
		c.printf("%s\n", l)
	}
	return nil
}

func (c *CLI) peekCmd(rest []string) error {
	if len(rest) != 2 {
		return fmt.Errorf("usage: peek <actor>::<port> <index>")
	}
	idx, err := strconv.Atoi(rest[1])
	if err != nil {
		return fmt.Errorf("bad index %q", rest[1])
	}
	v, err := c.D.PeekToken(rest[0], idx)
	if err != nil {
		return err
	}
	c.storeVal(v)
	return nil
}

// enableCmd toggles a breakpoint, watchpoint or catchpoint by id.
func (c *CLI) enableCmd(rest []string, on bool) error {
	verb := "disable"
	if on {
		verb = "enable"
	}
	if len(rest) == 2 && rest[0] == "catch" {
		id, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad catchpoint id %q", rest[1])
		}
		if err := c.D.SetCatchEnabled(id, on); err != nil {
			return err
		}
		c.printf("Catchpoint %d %sd\n", id, verb)
		return nil
	}
	if len(rest) != 1 {
		return fmt.Errorf("usage: %s <id> | %s catch <id>", verb, verb)
	}
	id, err := strconv.Atoi(rest[0])
	if err != nil {
		return fmt.Errorf("bad id %q", rest[0])
	}
	for _, bp := range c.Low.Breakpoints() {
		if bp.ID == id {
			c.Low.SetBreakEnabled(bp, on)
			c.printf("Breakpoint %d %sd\n", id, verb)
			return nil
		}
	}
	for _, w := range c.Low.Watchpoints() {
		if w.ID == id {
			c.Low.SetWatchEnabled(w, on)
			c.printf("Watchpoint %d %sd\n", id, verb)
			return nil
		}
	}
	return fmt.Errorf("no breakpoint or watchpoint #%d", id)
}

func (c *CLI) setCmd(rest []string) error {
	if len(rest) != 2 || rest[0] != "data-breakpoints" {
		return fmt.Errorf("usage: set data-breakpoints on|off")
	}
	switch rest[1] {
	case "on":
		c.Low.DataBreakpointsEnabled = true
	case "off":
		c.Low.DataBreakpointsEnabled = false
	default:
		return fmt.Errorf("usage: set data-breakpoints on|off")
	}
	c.printf("Data exchange breakpoints: %s\n", rest[1])
	return nil
}

// traceKind names the events the `trace` views fold from the obs ring
// ("" for the rest): token pushes and pops, and the controllers'
// scheduling calls.
func traceKind(k obs.Kind) string {
	switch k {
	case obs.KPush:
		return "push"
	case obs.KPop:
		return "pop"
	case obs.KActorStart, obs.KActorSync, obs.KStepBegin, obs.KStepEnd:
		return "sched"
	}
	return ""
}

// traceCmd serves the offline trace views: `trace [n]` dumps the last n
// push, pop and scheduling events of the obs ring (20 by default, all
// for n <= 0), `trace activity` folds the ring into per-actor event
// counts, and `trace balance` lists the links holding tokens with their
// exact in-flight count, in link order (the `held` of `info links`:
// injected and dropped tokens count, and a wrapped ring loses nothing).
// The dump prints token values, so the views need a recorder that
// renders payloads.
func (c *CLI) traceCmd(rest []string) error {
	if !c.Obs.Payloads() {
		return fmt.Errorf("no trace recorder attached to this session")
	}
	each := func(fn func(ev obs.Event, kind string)) {
		c.Obs.Range(func(ev obs.Event) bool {
			if kind := traceKind(ev.Kind); kind != "" {
				fn(ev, kind)
			}
			return true
		})
	}
	n := 20
	if len(rest) > 0 {
		switch rest[0] {
		case "balance":
			for _, l := range c.D.Links() {
				if n := l.Occupancy(); n > 0 {
					c.printf("link#%d  +%d tokens in flight\n", l.ID, n)
				}
			}
			return nil
		case "activity":
			act := make(map[string]int)
			each(func(ev obs.Event, _ string) {
				if ev.Actor != "" {
					act[ev.Actor]++
				}
			})
			actors := make([]string, 0, len(act))
			for actor := range act {
				actors = append(actors, actor)
			}
			sort.Strings(actors)
			for _, actor := range actors {
				c.printf("%-16s %d events\n", actor, act[actor])
			}
			return nil
		}
		var err error
		if n, err = strconv.Atoi(rest[0]); err != nil {
			return fmt.Errorf("usage: trace [n | balance | activity]")
		}
	}
	skip := 0
	if n > 0 {
		each(func(obs.Event, string) { skip++ })
		skip = max(skip-n, 0)
	}
	var b []byte
	each(func(ev obs.Event, kind string) {
		if skip > 0 {
			skip--
			return
		}
		b = fmt.Appendf(b, "%-12s %-5s %s", sim.Time(ev.At), kind, ev.Actor)
		if kind != "sched" {
			if ev.Port != "" {
				b = append(b, "::"+ev.Port...)
			}
			if ev.Other != "" {
				b = append(b, " <-> "+ev.Other...)
			}
			if ev.Val != "" {
				b = append(b, ' ')
				b = append(b, ev.Val...)
			}
		}
		b = append(b, '\n')
	})
	_, err := c.Out.Write(b)
	return err
}

// metricsCmd renders the observability metrics registry (`metrics` for
// the human-readable table, `metrics prom` for Prometheus exposition).
func (c *CLI) metricsCmd(rest []string) error {
	if c.Obs == nil || c.Obs.Metrics == nil {
		return fmt.Errorf("no observability recorder attached to this session")
	}
	switch {
	case len(rest) == 0:
		c.Obs.Metrics.WriteText(c.Out)
		return nil
	case len(rest) == 1 && rest[0] == "prom":
		c.Obs.Metrics.WritePrometheus(c.Out)
		return nil
	default:
		return fmt.Errorf("usage: metrics [prom]")
	}
}

// profileCmd folds the retained events into the simulated-time profile:
// `profile` prints the top-10 actors, `profile <n>` the top-n, and
// `profile folded` the folded-stack form for flamegraph tools.
func (c *CLI) profileCmd(rest []string) error {
	if c.Obs == nil {
		return fmt.Errorf("no observability recorder attached to this session")
	}
	prof := obs.FoldRange(c.Obs, uint64(c.Low.K.Now()))
	prof.Dropped = c.Obs.Dropped()
	switch {
	case len(rest) == 0:
		c.printf("%s", prof.TopN(10))
		return nil
	case len(rest) == 1 && rest[0] == "folded":
		c.printf("%s", prof.FoldedStacks())
		return nil
	case len(rest) == 1:
		n, err := strconv.Atoi(rest[0])
		if err != nil {
			return fmt.Errorf("usage: profile [n | folded]")
		}
		c.printf("%s", prof.TopN(n))
		return nil
	default:
		return fmt.Errorf("usage: profile [n | folded]")
	}
}

// timelineCmd exports the retained events as a Chrome trace-event /
// Perfetto JSON file ("-" for stdout): `timeline export out.json`.
func (c *CLI) timelineCmd(rest []string) error {
	if c.Obs == nil {
		return fmt.Errorf("no observability recorder attached to this session")
	}
	if len(rest) != 2 || rest[0] != "export" {
		return fmt.Errorf("usage: timeline export <file>")
	}
	linkNames := make(map[int32]string)
	for _, l := range c.D.Links() {
		linkNames[int32(l.ID)] = l.Src.Qualified() + "->" + l.Dst.Qualified()
	}
	name := func(id int32) string {
		if n, ok := linkNames[id]; ok {
			return n
		}
		return fmt.Sprintf("link#%d", id)
	}
	events := c.Obs.Snapshot()
	total := uint64(c.Low.K.Now())
	if rest[1] == "-" {
		return obs.WriteChromeTrace(c.Out, events, total, name)
	}
	if err := c.needFiles("timeline export FILE (use - for the reply)"); err != nil {
		return err
	}
	f, err := os.Create(rest[1])
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, events, total, name); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	c.printf("wrote %d events to %s (open in ui.perfetto.dev or chrome://tracing)\n",
		len(events), rest[1])
	return nil
}

// webCmd starts the HTTP observability UI: `web` picks a free port on
// localhost, `web <addr>` binds a specific address. The server lives
// until the process exits.
func (c *CLI) webCmd(rest []string) error {
	if c.StartWeb == nil {
		return fmt.Errorf("the web UI is not available in this session")
	}
	addr := "127.0.0.1:0"
	switch len(rest) {
	case 0:
	case 1:
		addr = rest[0]
	default:
		return fmt.Errorf("usage: web [<addr>]")
	}
	url, err := c.StartWeb(addr)
	if err != nil {
		return err
	}
	c.printf("web UI at %s\n", url)
	return nil
}

// commandWords is the command vocabulary CompleteLine draws on when the
// cursor is still on the first word of the line.
var commandWords = []string{
	"analyze", "backtrace", "batch", "break", "catchpoints", "checkpoint",
	"checkpoints", "continue", "delete", "disable", "drop", "enable",
	"fault", "filter", "finish", "graph", "help", "iface", "info",
	"inject", "list", "metrics", "module", "next", "peek", "print",
	"profile", "quit", "regions", "replace", "restore", "reverse-continue",
	"reverse-step", "set", "step", "step_both", "tbreak", "thread",
	"timeline", "trace", "unstick", "watch", "watchdog", "web",
}

// CompleteLine offers completions for the last word of a partial command
// line, drawing on the reconstructed graph (actor and interface names)
// and the symbol table.
func (c *CLI) CompleteLine(partial string) []string {
	words := strings.Fields(partial)
	last := ""
	if len(words) > 0 && !strings.HasSuffix(partial, " ") {
		last = words[len(words)-1]
	}
	seen := make(map[string]bool)
	var out []string
	add := func(s string) {
		if !seen[s] && strings.HasPrefix(s, last) {
			seen[s] = true
			out = append(out, s)
		}
	}
	// On the first word, the command vocabulary itself completes.
	if len(words) == 0 || (len(words) == 1 && last != "") {
		for _, s := range commandWords {
			add(s)
		}
	}
	for _, s := range c.D.Complete(last) {
		add(s)
	}
	if c.Low.Syms != nil {
		for _, s := range c.Low.Syms.Complete(last) {
			add(s)
		}
	}
	sort.Strings(out)
	return out
}
