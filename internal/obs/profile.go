package obs

import (
	"fmt"
	"sort"
	"strings"
)

// ActorStat is one actor's simulated-time attribution. The three spans
// partition the kernel's total simulated time: Busy (executing WORK,
// excluding waits), Blocked (waiting on a link operation or scheduling
// sync) and Idle (everything else — not scheduled). Busy+Blocked+Idle
// always equals Profile.Total.
type ActorStat struct {
	Name    string
	PE      int32
	Firings uint64
	Busy    uint64 // ns of simulated time
	Blocked uint64
	Idle    uint64
}

// PEStat is one processing element's utilisation: Busy is the union of
// its actors' busy intervals (actors time-share a PE only logically —
// the simulation lets them overlap, so Busy is interval union, not a
// sum).
type PEStat struct {
	ID     int32
	Actors int
	Busy   uint64
	Idle   uint64
}

// Profile is the folded view of an event stream.
type Profile struct {
	Total   uint64 // kernel simulated time, ns
	Events  uint64 // events folded
	Dropped uint64 // ring drops reported by the recorder (0 if unknown)
	Actors  []ActorStat
	PEs     []PEStat
}

type interval struct{ a, b uint64 }

// actorFold is the per-actor folding state.
type actorFold struct {
	name        string
	pe          int32
	firings     uint64
	busy        uint64
	blocked     uint64
	inFire      bool
	fireStart   uint64
	fireBlocked uint64 // blocked span inside the current firing
	inBlock     bool
	blockStart  uint64

	fires  []interval // for per-PE union
	blocks []interval
}

// FoldRange folds the recorder's retained events in place into
// per-actor and per-PE busy/blocked/idle attribution over [0, total]
// simulated ns. Unmatched begin events (stream truncated by the run
// horizon) are closed at total; unmatched end events (their begin was
// dropped from the ring) are ignored — best-effort under drop-oldest.
// Like Range, it must run on the goroutine that owns the kernel.
func FoldRange(r *Recorder, total uint64) *Profile {
	var f folder
	var n uint64
	r.Range(func(ev Event) bool {
		f.feed(ev)
		n++
		return true
	})
	return f.finish(total, n)
}

// folder is the incremental fold: feed events in chronological order,
// then finish with the kernel's end time.
type folder struct {
	actors map[string]*actorFold
	order  []string
}

func (f *folder) get(ev Event) *actorFold {
	a := f.actors[ev.Actor]
	if a == nil {
		if f.actors == nil {
			f.actors = make(map[string]*actorFold)
		}
		a = &actorFold{name: ev.Actor, pe: ev.PE}
		f.actors[ev.Actor] = a
		f.order = append(f.order, ev.Actor)
	}
	return a
}

func (f *folder) feed(ev Event) {
	switch ev.Kind {
	case KFireBegin, KCtlBegin:
		a := f.get(ev)
		a.pe = ev.PE
		a.inFire = true
		a.fireStart = ev.At
		a.fireBlocked = 0
		a.firings++
	case KFireEnd, KCtlEnd:
		a := f.get(ev)
		if a.inFire {
			a.closeFire(ev.At)
		}
	case KBlockBegin:
		a := f.get(ev)
		a.inBlock = true
		a.blockStart = ev.At
	case KBlockEnd:
		a := f.get(ev)
		if a.inBlock {
			a.closeBlock(ev.At)
		}
	}
}

func (f *folder) finish(total, events uint64) *Profile {
	p := &Profile{Total: total, Events: events}
	for _, name := range f.order {
		a := f.actors[name]
		if a.inBlock {
			a.closeBlock(total)
		}
		if a.inFire {
			a.closeFire(total)
		}
		busy, blocked := a.busy, a.blocked
		if busy+blocked > total { // defensive clamp against truncated streams
			blocked = total - min64(busy, total)
		}
		p.Actors = append(p.Actors, ActorStat{
			Name: a.name, PE: a.pe, Firings: a.firings,
			Busy: busy, Blocked: blocked, Idle: total - busy - blocked,
		})
	}
	p.foldPEs(f.actors, f.order, total)
	return p
}

func (a *actorFold) closeBlock(at uint64) {
	if at < a.blockStart {
		at = a.blockStart
	}
	d := at - a.blockStart
	a.blocked += d
	if a.inFire {
		a.fireBlocked += d
	}
	a.blocks = append(a.blocks, interval{a.blockStart, at})
	a.inBlock = false
}

func (a *actorFold) closeFire(at uint64) {
	if at < a.fireStart {
		at = a.fireStart
	}
	span := at - a.fireStart
	if a.fireBlocked < span {
		a.busy += span - a.fireBlocked
	}
	a.fires = append(a.fires, interval{a.fireStart, at})
	a.inFire = false
}

// foldPEs computes per-PE utilisation as the interval union of each
// PE's actor firings, minus the union of their blocked spans.
func (p *Profile) foldPEs(actors map[string]*actorFold, order []string, total uint64) {
	type peAcc struct {
		actors int
		fires  []interval
		blocks []interval
	}
	pes := make(map[int32]*peAcc)
	var peOrder []int32
	for _, name := range order {
		a := actors[name]
		if a.firings == 0 {
			continue
		}
		acc := pes[a.pe]
		if acc == nil {
			acc = &peAcc{}
			pes[a.pe] = acc
			peOrder = append(peOrder, a.pe)
		}
		acc.actors++
		acc.fires = append(acc.fires, a.fires...)
		acc.blocks = append(acc.blocks, a.blocks...)
	}
	sort.Slice(peOrder, func(i, j int) bool { return peOrder[i] < peOrder[j] })
	for _, id := range peOrder {
		acc := pes[id]
		busy := unionLen(acc.fires) - intersectLen(acc.fires, acc.blocks)
		if busy > total {
			busy = total
		}
		p.PEs = append(p.PEs, PEStat{
			ID: id, Actors: acc.actors, Busy: busy, Idle: total - busy,
		})
	}
}

// unionLen returns the total length covered by a set of intervals.
func unionLen(ivs []interval) uint64 {
	merged := mergeIntervals(ivs)
	var n uint64
	for _, iv := range merged {
		n += iv.b - iv.a
	}
	return n
}

// intersectLen returns the length of union(a) ∩ union(b).
func intersectLen(a, b []interval) uint64 {
	ma, mb := mergeIntervals(a), mergeIntervals(b)
	var n uint64
	i, j := 0, 0
	for i < len(ma) && j < len(mb) {
		lo := max64(ma[i].a, mb[j].a)
		hi := min64(ma[i].b, mb[j].b)
		if lo < hi {
			n += hi - lo
		}
		if ma[i].b < mb[j].b {
			i++
		} else {
			j++
		}
	}
	return n
}

func mergeIntervals(ivs []interval) []interval {
	if len(ivs) == 0 {
		return nil
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].a < s[j].a })
	out := s[:1]
	for _, iv := range s[1:] {
		last := &out[len(out)-1]
		if iv.a <= last.b {
			if iv.b > last.b {
				last.b = iv.b
			}
		} else {
			out = append(out, iv)
		}
	}
	return out
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// pct renders a share of p.Total as "12.3%".
func (p *Profile) pct(n uint64) string {
	if p.Total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(p.Total))
}

// TopN renders the n busiest actors (all when n <= 0) plus the per-PE
// utilisation summary.
func (p *Profile) TopN(n int) string {
	actors := append([]ActorStat(nil), p.Actors...)
	sort.SliceStable(actors, func(i, j int) bool { return actors[i].Busy > actors[j].Busy })
	if n > 0 && len(actors) > n {
		actors = actors[:n]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "simulated time %dns, %d events folded", p.Total, p.Events)
	if p.Dropped > 0 {
		fmt.Fprintf(&b, " (%d dropped — profile is partial)", p.Dropped)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-18s %6s %8s %12s %12s %12s %7s\n",
		"actor", "pe", "firings", "busy(ns)", "blocked(ns)", "idle(ns)", "busy%")
	for _, a := range actors {
		fmt.Fprintf(&b, "%-18s %6s %8d %12d %12d %12d %7s\n",
			a.Name, peName(a.PE), a.Firings, a.Busy, a.Blocked, a.Idle, p.pct(a.Busy))
	}
	if len(p.PEs) > 0 {
		fmt.Fprintf(&b, "%-18s %6s %8s %12s %33s %7s\n",
			"-- PE --", "", "actors", "busy(ns)", "", "util%")
		for _, pe := range p.PEs {
			fmt.Fprintf(&b, "%-18s %6s %8d %12d %33s %7s\n",
				peName(pe.ID), "", pe.Actors, pe.Busy, "", p.pct(pe.Busy))
		}
	}
	return b.String()
}

// FoldedStacks renders "pe;actor;state value" lines consumable by
// standard flamegraph tooling (e.g. inferno/flamegraph.pl), weighted by
// simulated ns.
func (p *Profile) FoldedStacks() string {
	var b strings.Builder
	for _, a := range p.Actors {
		if a.Busy > 0 {
			fmt.Fprintf(&b, "%s;%s;busy %d\n", peName(a.PE), a.Name, a.Busy)
		}
		if a.Blocked > 0 {
			fmt.Fprintf(&b, "%s;%s;blocked %d\n", peName(a.PE), a.Name, a.Blocked)
		}
		if a.Idle > 0 {
			fmt.Fprintf(&b, "%s;%s;idle %d\n", peName(a.PE), a.Name, a.Idle)
		}
	}
	return b.String()
}

func peName(id int32) string {
	if id < 0 {
		return "host"
	}
	return fmt.Sprintf("pe%d", id)
}
