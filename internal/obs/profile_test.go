package obs

import (
	"strings"
	"testing"
	"testing/quick"
)

// fireSeq builds a well-formed begin/block/end event stream for one
// actor on one PE.
func fireSeq(actor string, pe int32, spans [][3]uint64) []Event {
	// spans: {fireStart, blockLen, fireEnd}; block starts mid-firing.
	var evs []Event
	for i, s := range spans {
		evs = append(evs, Event{At: s[0], Kind: KFireBegin, Actor: actor, PE: pe, Arg: int64(i)})
		if s[1] > 0 {
			mid := s[0] + (s[2]-s[0])/2
			evs = append(evs,
				Event{At: mid, Kind: KBlockBegin, Actor: actor, PE: pe, Other: "pop:i"},
				Event{At: mid + s[1], Kind: KBlockEnd, Actor: actor, PE: pe, Other: "pop:i"})
		}
		evs = append(evs, Event{At: s[2], Kind: KFireEnd, Actor: actor, PE: pe, Arg2: int64(s[2] - s[0])})
	}
	return evs
}

// fold records evs into a recorder and folds its ring.
func fold(evs []Event, total uint64) *Profile {
	r := NewRecorder(len(evs) + 1)
	defer r.Release()
	r.RecordBatch(evs)
	return FoldRange(r, total)
}

func TestFoldAttribution(t *testing.T) {
	// One firing [100, 400] with a 50ns block inside: busy 250, blocked
	// 50, idle 700 of a 1000ns run.
	evs := fireSeq("fa", 2, [][3]uint64{{100, 50, 400}})
	p := fold(evs, 1000)
	if len(p.Actors) != 1 {
		t.Fatalf("actors = %v", p.Actors)
	}
	a := p.Actors[0]
	if a.Name != "fa" || a.PE != 2 || a.Firings != 1 {
		t.Errorf("stat = %+v", a)
	}
	if a.Busy != 250 || a.Blocked != 50 || a.Idle != 700 {
		t.Errorf("busy/blocked/idle = %d/%d/%d, want 250/50/700", a.Busy, a.Blocked, a.Idle)
	}
	if len(p.PEs) != 1 || p.PEs[0].ID != 2 || p.PEs[0].Busy != 250 {
		t.Errorf("PEs = %+v", p.PEs)
	}
}

// TestFoldInvariant checks the partition invariant the issue pins:
// busy+blocked+idle == total for every actor, for arbitrary well-formed
// streams.
func TestFoldInvariant(t *testing.T) {
	prop := func(raw []uint16, blockRaw []uint8) bool {
		var spans [][3]uint64
		at := uint64(1)
		for i, r := range raw {
			if len(spans) >= 8 {
				break
			}
			dur := uint64(r)%200 + 2
			var block uint64
			if i < len(blockRaw) {
				block = uint64(blockRaw[i]) % (dur / 2)
			}
			spans = append(spans, [3]uint64{at, block, at + dur})
			at += dur + uint64(r)%37 + 1
		}
		if len(spans) == 0 {
			return true
		}
		total := at + 100
		p := fold(fireSeq("x", 0, spans), total)
		for _, a := range p.Actors {
			if a.Busy+a.Blocked+a.Idle != total {
				return false
			}
		}
		for _, pe := range p.PEs {
			if pe.Busy+pe.Idle != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFoldUnmatchedBegins(t *testing.T) {
	// A firing and a block still open at the horizon are closed at total.
	evs := []Event{
		{At: 10, Kind: KFireBegin, Actor: "fa", PE: 0},
		{At: 20, Kind: KBlockBegin, Actor: "fa", PE: 0, Other: "pop:i"},
	}
	p := fold(evs, 100)
	a := p.Actors[0]
	if a.Busy+a.Blocked+a.Idle != 100 {
		t.Errorf("partition broken: %+v", a)
	}
	if a.Blocked != 80 { // block [20,100]
		t.Errorf("blocked = %d, want 80", a.Blocked)
	}
}

func TestFoldUnmatchedEndsIgnored(t *testing.T) {
	// An end whose begin was dropped from the ring must not underflow.
	evs := []Event{
		{At: 50, Kind: KFireEnd, Actor: "fa", PE: 0},
		{At: 60, Kind: KBlockEnd, Actor: "fa", PE: 0},
	}
	p := fold(evs, 100)
	a := p.Actors[0]
	if a.Busy != 0 || a.Blocked != 0 || a.Idle != 100 {
		t.Errorf("stat = %+v", a)
	}
}

func TestPEUnionNotSum(t *testing.T) {
	// Two actors overlapping on the same PE: union, not sum.
	evs := append(fireSeq("a", 1, [][3]uint64{{0, 0, 100}}),
		fireSeq("b", 1, [][3]uint64{{50, 0, 150}})...)
	p := fold(evs, 200)
	if len(p.PEs) != 1 {
		t.Fatalf("PEs = %+v", p.PEs)
	}
	if p.PEs[0].Busy != 150 || p.PEs[0].Actors != 2 {
		t.Errorf("PE busy = %d actors = %d, want 150/2", p.PEs[0].Busy, p.PEs[0].Actors)
	}
}

func TestTopNAndFoldedStacks(t *testing.T) {
	evs := append(fireSeq("hot", 0, [][3]uint64{{0, 0, 500}}),
		fireSeq("cold", 1, [][3]uint64{{0, 0, 10}})...)
	p := fold(evs, 1000)
	p.Dropped = 3
	top := p.TopN(1)
	if !strings.Contains(top, "hot") || strings.Contains(strings.SplitN(top, "-- PE --", 2)[0], "cold") {
		t.Errorf("TopN(1):\n%s", top)
	}
	if !strings.Contains(top, "dropped") {
		t.Error("TopN does not flag dropped events")
	}
	folded := p.FoldedStacks()
	if !strings.Contains(folded, "pe0;hot;busy 500") || !strings.Contains(folded, "pe1;cold;idle 990") {
		t.Errorf("folded:\n%s", folded)
	}
}
