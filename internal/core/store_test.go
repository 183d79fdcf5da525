package core

import (
	"reflect"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
	"dfdbg/internal/lowdbg"
	"dfdbg/internal/mach"
	"dfdbg/internal/pedf"
	"dfdbg/internal/sim"
)

// TestTokenStoreHoldsNoPointers keeps the token store out of the
// garbage collector's marking: the element types of its records,
// arena, origin table and forwarding table must hold nothing the
// collector scans, however many tokens the store holds.
func TestTokenStoreHoldsNoPointers(t *testing.T) {
	var s tokenStore
	for _, typ := range []reflect.Type{
		reflect.TypeOf(s.recs).Elem(),
		reflect.TypeOf(s.arena.Data()).Elem(),
		reflect.TypeOf(s.origins).Elem(),
		reflect.TypeOf(s.fwd).Elem(),
	} {
		if path := pointerIn(typ, typ.String()); path != "" {
			t.Errorf("token store element %s holds a %s", typ, path)
		}
	}
}

// pointerIn returns the path to the first field of typ the garbage
// collector would scan ("" when there is none).
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
		reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
		return typ.Kind().String() + " at " + path
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// storeDecode boots an H.264 decode of the given frames with every
// interface recording into a 4-token history and every filter of the
// pipe configured, so tokens carry origin chains.
func storeDecode(t *testing.T, frames int) (*sim.Kernel, *lowdbg.Debugger, *Debugger) {
	t.Helper()
	k := sim.NewKernel()
	low := lowdbg.New(k, dbginfo.NewTable())
	d := Attach(low)
	m := mach.New(k, mach.Config{})
	rt := pedf.NewRuntime(k, m, low)
	p := h264.Params{W: 16, H: 16, QP: 8, Seed: 7, Frames: frames}
	bits, err := h264.EncodeVideo(h264.GenerateVideo(p), p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h264.Build(rt, p, bits, false); err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	if st, err := k.RunUntil(0); err != nil || st != sim.RunHorizon {
		t.Fatalf("boot: %v %v", st, err)
	}
	for name, b := range map[string]Behavior{"bh": BehaviorMap, "hwcfg": BehaviorSplitter,
		"red": BehaviorSplitter, "pipe": BehaviorJoiner, "ipred": BehaviorSplitter,
		"ipf": BehaviorMap, "mb": BehaviorJoiner} {
		if err := d.ConfigureBehavior(name, b); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range d.Actors() {
		for _, c := range append(append([]*Connection(nil), a.Inputs...), a.Outputs...) {
			c.RecordCap = 4
			if err := d.SetRecording(c.Qualified(), true); err != nil {
				t.Fatal(err)
			}
		}
	}
	return k, low, d
}

// reachableSize is what a query can still reach, counted independently
// of compaction: the model's roots and the primary-origin chains of
// what they name, each token's record, payload and origin ids once.
func reachableSize(d *Debugger) int {
	s := &d.tokens
	seen := make(map[tokRef]bool)
	var size int
	d.eachTokenRoot(func(r *tokRef) {
		for p := *r; p != 0 && !seen[p]; p = s.recs[p].prim {
			seen[p] = true
			size += recBytes + int(s.recs[p].val.n) + 8*int(s.recs[p].origins.n)
		}
	})
	return size
}

// TestTokenStoreStaysProportional decodes eight frames with recording
// on and checks after every data event that the store's records,
// payloads and origins stay within a constant factor of what the model
// can still reach, and that the store compacted along the way.
func TestTokenStoreStaysProportional(t *testing.T) {
	_, low, d := storeDecode(t, 8)
	var worst float64
	var events int
	d.CatchWhen("store probe", func(d *Debugger) bool {
		events++
		size, live := d.tokens.size(), reachableSize(d)
		if size > 3*live+minStoreBytes {
			t.Fatalf("event %d: store holds %d bytes for %d reachable", events, size, live)
		}
		worst = max(worst, float64(size)/float64(live))
		return false
	})
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("decode stopped: %v", ev)
	}
	if d.tokens.compactions < 8 {
		t.Errorf("%d compactions over %d tokens, want several", d.tokens.compactions, d.tokenSeq)
	}
	t.Logf("%d tokens, %d compactions, %d records and %d arena bytes at the end, worst size/reachable %.2f",
		d.tokenSeq, d.tokens.compactions, len(d.tokens.recs), d.tokens.arena.Len(), worst)
}

// TestTokenStoreReadsBackValues pins the read side: every recorded
// token decodes to the value its interface's last token showed when it
// was the newest, across compactions.
func TestTokenStoreReadsBackValues(t *testing.T) {
	_, low, d := storeDecode(t, 4)
	conn, err := d.Connection("red::Red2PipeCbMB_out")
	if err != nil {
		t.Fatal(err)
	}
	var seen []string
	var last uint64
	d.CatchWhen("sent on red", func(d *Debugger) bool {
		if conn.Sent != last {
			last = conn.Sent
			seen = append(seen, conn.LastToken().Hop.Val.String())
		}
		return false
	})
	if ev := low.Continue(); ev.Kind != lowdbg.StopDone {
		t.Fatalf("decode stopped: %v", ev)
	}
	toks, err := d.RecordedTokens(conn.Qualified())
	if err != nil || len(toks) != 4 || len(seen) < 4 {
		t.Fatalf("recorded %d tokens of %d sent: %v", len(toks), len(seen), err)
	}
	for i, tok := range toks {
		if got, want := tok.Hop.Val.String(), seen[len(seen)-4+i]; got != want {
			t.Errorf("recorded #%d = %s, want %s", i+1, got, want)
		}
		if tok.Hop.Type != "CbCrMB_t" || tok.Hop.Val.Type == nil || tok.Hop.Val.Type.Kind != filterc.KStruct {
			t.Errorf("recorded #%d has type %s", i+1, tok.Hop.Type)
		}
	}
	if d.tokens.compactions == 0 {
		t.Error("the decode never compacted the store")
	}
}

// TestTokenStoreKeepsWhatTheModelHolds drives the store directly: an
// untyped token in flight and a struct token with its primary origin
// survive a compaction that drops thousands of unreferenced tokens and
// the struct's second origin, keep their ids and payloads, and read
// back as the Hops the model would have built.
func TestTokenStoreKeepsWhatTheModelHolds(t *testing.T) {
	d := &Debugger{}
	src, dst := &Actor{Name: "a", d: d}, &Actor{Name: "b", d: d}
	out := &Connection{Actor: src, Name: "o", qualified: "a::o"}
	in := &Connection{Actor: dst, Name: "i", qualified: "b::i"}
	src.Outputs, dst.Inputs = []*Connection{out}, []*Connection{in}
	l := &LinkInfo{ID: 1, Src: out, Dst: in}
	d.actorList, d.linkList = []*Actor{src, dst}, []*LinkInfo{l}

	pair := filterc.Zero(pairType)
	pair.Elems[0] = u32v(7)
	pair.Elems[1].Elems[1] = filterc.Int(filterc.I32, -2)
	untyped := d.addToken(l, filterc.Value{}, fromLink)
	scalar := d.addToken(l, u32v(5), fromDebugger)
	dropped := d.addToken(l, u32v(6), fromLink)
	agg := d.addToken(l, pair, fromLink)
	d.tokens.setOrigins(agg, []tokRef{scalar, dropped})
	l.inflight, in.lastTok = []tokRef{untyped}, agg
	for i := 0; i < 5000; i++ {
		d.addToken(l, pair, fromLink)
	}
	d.compactTokens()
	if got := len(d.tokens.recs); got != 4 {
		t.Fatalf("store kept %d records after compaction, want the placeholder and 3", got)
	}
	tok := in.LastToken()
	want := []string{
		"a -> b (Pair_t) {A = 7, B = [0, -2]}",
		"(debugger) -> b (U32) 5",
	}
	if len(tok.Path()) != len(want) || tok.ID != 4 || len(tok.Origins) != 2 || tok.Origins[0] != 2 || tok.Origins[1] != 3 {
		t.Fatalf("token %d origins %v path %v", tok.ID, tok.Origins, tok.Path())
	}
	for i, h := range tok.Path() {
		if h.String() != want[i] || h.Iface != "b::i" {
			t.Errorf("hop %d = %s on %s, want %s on b::i", i+1, h, h.Iface, want[i])
		}
	}
	if h := d.hop(l.inflight[0]); h.String() != "a -> b (?) <nil>" {
		t.Errorf("untyped token reads back as %s", h)
	}
	d.tokens.setValue(l, l.inflight[0], u32v(9))
	if h := d.hop(l.inflight[0]); h.String() != "a -> b (U32) 9" {
		t.Errorf("replaced token reads back as %s", h)
	}
}
