// Fault injection, watchdog control and deadlock recovery commands.
//
//	fault status | list | trace | clear
//	fault load <file>
//	fault add <spec...>
//	fault gen <seed>
//	fault disarm <spec...>
//	unstick [apply]
//	watchdog <dur>|off
//
// The fault plan drives the deterministic injector (internal/fault);
// `unstick` surfaces the paper's token-surgery recovery for deadlocks
// the watchdog (or the idle detector) reports.
package cli

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"dfdbg/internal/analysis"
	"dfdbg/internal/core"
	"dfdbg/internal/fault"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/sim"
)

func (c *CLI) faultCmd(rest []string) error {
	if len(rest) == 0 {
		rest = []string{"status"}
	}
	sub, args := rest[0], rest[1:]
	switch sub {
	case "status":
		in := c.Low.K.Faults()
		if in == nil {
			c.printf("fault injection: disarmed\n")
		} else {
			c.printf("fault injection: armed, %d fault(s), %d fired, %d pending\n",
				len(in.Faults()), in.InjectedTotal(), len(in.Pending()))
		}
		if w := c.Low.K.Watchdog(); w > 0 {
			c.printf("watchdog: %s\n", w)
		} else {
			c.printf("watchdog: off\n")
		}
		return nil
	case "load":
		if len(args) != 1 {
			return fmt.Errorf("usage: fault load <file>")
		}
		if err := c.needFiles("fault load (use fault add)"); err != nil {
			return err
		}
		spec, err := os.ReadFile(args[0])
		if err != nil {
			return err
		}
		plan, err := fault.ParsePlan(string(spec))
		if err != nil {
			return err
		}
		c.Low.K.SetFaults(fault.NewInjector(plan))
		c.printf("armed %d fault(s) (seed %d)\n", len(plan.Faults), plan.Seed)
		return nil
	case "add":
		if len(args) == 0 {
			return fmt.Errorf("usage: fault add <spec...> (e.g. fault add drop link flt.mb::out @ 3)")
		}
		plan, err := fault.ParsePlan(strings.Join(args, " "))
		if err != nil {
			return err
		}
		in := c.Low.K.Faults()
		if in == nil {
			in = fault.NewInjector(fault.Plan{})
			c.Low.K.SetFaults(in)
		}
		for _, f := range plan.Faults {
			in.Add(f)
			c.printf("armed: %s\n", f)
		}
		return nil
	case "disarm":
		if len(args) == 0 {
			return fmt.Errorf("usage: fault disarm <spec...> (canonical form, see fault list)")
		}
		in := c.Low.K.Faults()
		if in == nil {
			return fmt.Errorf("no fault plan armed (use fault load|add|gen)")
		}
		spec := strings.Join(args, " ")
		if !in.Disarm(spec) {
			return fmt.Errorf("fault disarm: no pending fault matches %q", spec)
		}
		c.printf("disarmed: %s\n", spec)
		return nil
	case "gen":
		if len(args) != 1 {
			return fmt.Errorf("usage: fault gen <seed>")
		}
		seed, err := strconv.ParseInt(args[0], 0, 64)
		if err != nil {
			return fmt.Errorf("fault gen: bad seed %q", args[0])
		}
		if len(c.Targets.Links) == 0 && len(c.Targets.Filters) == 0 {
			return fmt.Errorf("fault gen: no fault targets registered (runtime not wired)")
		}
		plan := fault.Generate(seed, c.Targets)
		c.Low.K.SetFaults(fault.NewInjector(plan))
		c.printf("%s", plan.String())
		c.printf("armed %d fault(s)\n", len(plan.Faults))
		return nil
	case "list":
		in := c.Low.K.Faults()
		if in == nil {
			return fmt.Errorf("no fault plan armed (use fault load|add|gen)")
		}
		pending := make(map[string]bool)
		for _, f := range in.Pending() {
			pending[f.String()] = true
		}
		for _, f := range in.Faults() {
			state := "fired"
			if pending[f.String()] {
				state = "pending"
			}
			c.printf("%-7s %s\n", state, f)
		}
		return nil
	case "trace":
		in := c.Low.K.Faults()
		if in == nil {
			return fmt.Errorf("no fault plan armed (use fault load|add|gen)")
		}
		lines := in.TraceStrings()
		if len(lines) == 0 {
			c.printf("no faults fired yet\n")
			return nil
		}
		for _, l := range lines {
			c.printf("%s\n", l)
		}
		return nil
	case "clear":
		c.Low.K.SetFaults(nil)
		c.printf("fault injection disarmed\n")
		return nil
	default:
		return fmt.Errorf("usage: fault status|load <file>|add <spec...>|gen <seed>|list|trace|clear")
	}
}

// unstickCmd proposes (and with "apply" executes) the paper's deadlock
// recovery: insert a token where a consumer starves, delete one where a
// producer overflows, thaw frozen processes.
func (c *CLI) unstickCmd(rest []string) error {
	apply := false
	switch {
	case len(rest) == 0:
	case len(rest) == 1 && rest[0] == "apply":
		apply = true
	default:
		return fmt.Errorf("usage: unstick [apply]")
	}
	acts := c.D.ProposeUnstick()
	if len(acts) == 0 {
		c.printf("nothing to unstick: no starving, overflowing or frozen process found\n")
		return nil
	}
	for _, a := range acts {
		c.printf("propose: %s\n", a)
	}
	if !apply {
		c.printf("run `unstick apply' to execute\n")
		return nil
	}
	n, err := c.D.ApplyUnstick(acts)
	for _, l := range c.D.DrainLog() {
		c.printf("%s\n", l)
	}
	if err != nil {
		return err
	}
	c.printf("applied %d action(s); `continue' to resume\n", n)
	return nil
}

// watchdogCmd sets or disables the kernel's progress watchdog.
func (c *CLI) watchdogCmd(rest []string) error {
	if len(rest) != 1 {
		return fmt.Errorf("usage: watchdog <dur>|off  (dur like 500us, 2ms, 1000 = ns)")
	}
	if rest[0] == "off" {
		c.Low.K.SetWatchdog(0)
		c.printf("watchdog off\n")
		return nil
	}
	d, err := parseSimDuration(rest[0])
	if err != nil {
		return err
	}
	c.Low.K.SetWatchdog(d)
	c.printf("watchdog set: stall if no token movement for %s\n", d)
	return nil
}

// parseSimDuration reads "300ns", "5us", "2ms", "1s" or a bare
// nanosecond count into a simulated duration.
func parseSimDuration(s string) (sim.Duration, error) {
	n, err := fault.ParseDurationNS(s)
	if err != nil {
		return 0, err
	}
	return sim.Duration(n), nil
}

// printStallDetail enriches a deadlock/stall stop with the wait-for
// graph resolved against the reconstructed model: which actor each
// blocked process is, the link operation it is stuck on, the peer on
// the other side of that link and its occupancy. When the static
// analyzer has a matching error-level diagnostic the first one is
// cross-linked, pointing at the structural cause.
func (c *CLI) printStallDetail(ev *lowdbg.StopEvent) {
	var procs []string
	seen := map[string]bool{}
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			procs = append(procs, name)
		}
	}
	if ev.Deadlock != nil {
		for _, bp := range ev.Deadlock.Procs {
			add(bp.Proc)
		}
	}
	if ev.Stall != nil {
		for _, sp := range ev.Stall.Procs {
			add(sp.Proc)
		}
	}
	for _, name := range procs {
		p := c.Low.K.ProcByName(name)
		if p == nil {
			continue
		}
		a := c.D.ActorForProc(p)
		if a == nil {
			continue
		}
		op := a.BlockedOn()
		switch {
		case strings.HasPrefix(op, "pop:"):
			conn := a.In(strings.TrimPrefix(op, "pop:"))
			if conn == nil || conn.Link == nil || conn.Link.Src == nil {
				break
			}
			c.printf("  %s (%s) blocked on %s <- %s [%s queued]\n",
				name, a.Name, op, conn.Link.Src.Qualified(), c.linkOcc(conn.Link))
		case strings.HasPrefix(op, "push:"):
			conn := a.Out(strings.TrimPrefix(op, "push:"))
			if conn == nil || conn.Link == nil || conn.Link.Dst == nil {
				break
			}
			c.printf("  %s (%s) blocked on %s -> %s [%s queued]\n",
				name, a.Name, op, conn.Link.Dst.Qualified(), c.linkOcc(conn.Link))
		}
	}
	rep := analysis.CheckGraph(c.D.AnalysisGraph())
	for _, diag := range rep.Diags {
		if diag.Sev == analysis.Error {
			c.printf("  related diagnostic: %s\n", diag)
			break
		}
	}
	c.printf("hint: `unstick' proposes token surgery to resume progress\n")
}

// linkOcc renders a link's token count; when faults made the model
// diverge from the runtime, both numbers are shown so the report stays
// honest about what the hardware actually holds.
func (c *CLI) linkOcc(l *core.LinkInfo) string {
	model := l.Occupancy()
	truth, err := c.D.LinkOccupancyTruth(l.ID)
	if err != nil || int64(model) == truth {
		return fmt.Sprintf("%d token(s)", model)
	}
	return fmt.Sprintf("%d token(s) in model, %d in runtime", model, truth)
}
