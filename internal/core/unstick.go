package core

import (
	"fmt"
	"strings"

	"dfdbg/internal/filterc"
)

// UnstickAction is one recovery step proposed for a detected deadlock,
// following the paper's flow-control prescription: insert a token where
// a consumer starves, delete a token where a producer overflows, thaw a
// frozen process.
type UnstickAction struct {
	Kind   string // "inject-zero" | "drop-head" | "thaw"
	Target string // input-qualified interface, or process name for thaw
	Reason string
}

func (a UnstickAction) String() string {
	return fmt.Sprintf("%s %s (%s)", a.Kind, a.Target, a.Reason)
}

// ProposeUnstick inspects the ground-truth blocked state of every actor
// (through the target-function surface, not the model, so it works even
// when faults made the two diverge) and proposes the recovery that would
// let the blocked processes advance. Proposals are least-invasive first:
// if any process is frozen, thawing it is the whole proposal — the
// starvation downstream of a suspended process resolves itself once it
// resumes, whereas token surgery applied at the same time desynchronises
// firing counts the protocol can never recover from. Token insertion and
// deletion are proposed only when no frozen process explains the stall.
// The result is deterministic: actors in registration order, frozen
// processes in spawn order.
func (d *Debugger) ProposeUnstick() []UnstickAction {
	var acts []UnstickAction
	for _, p := range d.Low.K.Procs() {
		if p.Frozen() {
			acts = append(acts, UnstickAction{
				Kind: "thaw", Target: p.Name(),
				Reason: "process frozen",
			})
		}
	}
	if len(acts) > 0 {
		return acts
	}
	for _, a := range d.actorList {
		ret, err := d.Low.CallTarget(tfFilterBlocked, a.Name)
		if err != nil {
			continue
		}
		blocked, _ := ret.(string)
		switch {
		case strings.HasPrefix(blocked, "pop:"):
			conn := a.In(strings.TrimPrefix(blocked, "pop:"))
			if conn == nil || conn.Link == nil {
				continue
			}
			occ, err := d.linkOccupancy(conn.Link.ID)
			if err != nil || occ > 0 {
				continue // tokens are available; the actor will advance
			}
			acts = append(acts, UnstickAction{
				Kind: "inject-zero", Target: conn.Qualified(),
				Reason: fmt.Sprintf("%s starving on empty link", a.Name),
			})
		case strings.HasPrefix(blocked, "push:"):
			conn := a.Out(strings.TrimPrefix(blocked, "push:"))
			if conn == nil || conn.Link == nil || conn.Link.Dst == nil {
				continue
			}
			occ, err := d.linkOccupancy(conn.Link.ID)
			if err != nil || occ == 0 {
				continue
			}
			acts = append(acts, UnstickAction{
				Kind: "drop-head", Target: conn.Link.Dst.Qualified(),
				Reason: fmt.Sprintf("%s blocked on full link", a.Name),
			})
		}
	}
	return acts
}

// LinkOccupancyTruth reads a link's ground-truth token count from the
// runtime (the model's count can diverge under hardware-level faults).
func (d *Debugger) LinkOccupancyTruth(id int64) (int64, error) {
	return d.linkOccupancy(id)
}

// linkOccupancy reads a link's ground-truth token count.
func (d *Debugger) linkOccupancy(id int64) (int64, error) {
	ret, err := d.Low.CallTarget(tfLinkOccupancy, id)
	if err != nil {
		return 0, err
	}
	n, _ := ret.(int64)
	return n, nil
}

// ApplyUnstick executes proposed recovery actions, returning how many
// were applied. Inject-zero goes through the runtime's typed-zero target
// function (the model only knows type names), and the model is updated
// to match so timelines stay truthful.
func (d *Debugger) ApplyUnstick(acts []UnstickAction) (int, error) {
	applied := 0
	for _, act := range acts {
		switch act.Kind {
		case "inject-zero":
			conn, err := d.Connection(act.Target)
			if err != nil {
				return applied, err
			}
			if conn.Link == nil {
				return applied, fmt.Errorf("core: %s is not bound", act.Target)
			}
			ret, err := d.Low.CallTarget(tfLinkInjectZero, conn.Link.ID)
			if err != nil {
				return applied, err
			}
			v, _ := ret.(filterc.Value)
			conn.Link.inflight = append(conn.Link.inflight, d.addToken(conn.Link, v, fromUnstick))
			d.announce("[unstick: injected zero token %s on `%s']", v.String(), act.Target)
		case "drop-head":
			if err := d.DropToken(act.Target, 0); err != nil {
				return applied, err
			}
		case "thaw":
			p := d.Low.K.ProcByName(act.Target)
			if p == nil {
				return applied, fmt.Errorf("core: no process %q", act.Target)
			}
			p.Thaw()
			d.announce("[unstick: thawed process `%s']", act.Target)
		default:
			return applied, fmt.Errorf("core: unknown unstick action %q", act.Kind)
		}
		applied++
	}
	return applied, nil
}
