package core

import (
	"slices"
	"unsafe"

	"dfdbg/internal/ckpt/wire"
	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

// tokRef names a token record in the debugger's token store by its
// index; 0 means "no token" (record 0 is a placeholder).
type tokRef uint32

// Where a token came from, which decides its Hop.From.
const (
	fromLink     uint8 = iota // pushed (or popped unseen) on its link
	fromDebugger              // `inject`
	fromUnstick               // an unstick recovery action
)

// span locates a record's bytes in the arena or its origin ids in the
// side table.
type span struct{ off, n uint32 }

// tokenRec is one intercepted token. It holds no Go pointer: the
// payload is encoded in the arena, the names come from the link, the
// type from the store's type table, so the store is out of the
// garbage collector's marking however many tokens it holds.
type tokenRec struct {
	id, seq uint64
	at      sim.Time
	val     span   // filterc.EncodeValue bytes in the arena
	origins span   // ids of the tokens the producing firing consumed
	prim    tokRef // the primary origin, which Path follows
	link    uint32 // index in Debugger.linkList
	typ     uint32 // index in tokenStore.types
	from    uint8
	popped  bool
}

const recBytes = int(unsafe.Sizeof(tokenRec{}))

// minStoreBytes is the size below which the store never compacts.
const minStoreBytes = 64 << 10

// tokenStore holds every token the model can still reach (DESIGN §4).
// The roots are each link's in-flight list, each connection's and
// actor's last token, each connection's recorded history and each
// actor's current firing inputs; a token also keeps its primary origin,
// the chain Path walks. When the store reaches twice the size the last
// compaction left, compact copies the reachable records into the spare
// buffers, in order, and swaps them in: amortised O(1) per token, and
// no allocation once the buffers fit the working set.
type tokenStore struct {
	recs    []tokenRec
	arena   wire.Writer
	origins []uint64
	// types interns payload types; index 0 is the nil type. Types come
	// from compiled programs, so the table stays small.
	types []*filterc.Type

	spareRecs    []tokenRec
	spareArena   wire.Writer
	spareOrigins []uint64
	fwd          []tokRef // compaction's mark bits, then its forwarding table

	limit       int // size that triggers the next compaction
	compactions int
}

// size is the bytes the store's records, payloads and origins take.
func (s *tokenStore) size() int {
	return len(s.recs)*recBytes + s.arena.Len() + 8*len(s.origins)
}

// typeIndex interns t, checking the link's cached type first.
func (s *tokenStore) typeIndex(l *LinkInfo, t *filterc.Type) uint32 {
	if t == l.typ {
		return l.typIdx
	}
	i := slices.Index(s.types, t)
	if i < 0 {
		i = len(s.types)
		s.types = append(s.types, t)
	}
	l.typ, l.typIdx = t, uint32(i)
	return l.typIdx
}

// addToken records a token on l carrying a copy of v, which the runtime
// only lends, and returns its reference. It may compact the store
// first, so a caller takes references from the model only afterwards.
func (d *Debugger) addToken(l *LinkInfo, v filterc.Value, from uint8) tokRef {
	s := &d.tokens
	if len(s.recs) == 0 {
		s.recs = append(s.recs, tokenRec{})
		s.types = append(s.types, nil)
	}
	if s.size() >= max(s.limit, minStoreBytes) {
		d.compactTokens()
	}
	d.tokenSeq++
	off := s.arena.Len()
	filterc.EncodeValue(&s.arena, v)
	s.recs = append(s.recs, tokenRec{
		id:   d.tokenSeq,
		val:  span{uint32(off), uint32(s.arena.Len() - off)},
		link: l.idx, typ: s.typeIndex(l, v.Type), from: from,
	})
	return tokRef(len(s.recs) - 1)
}

// setOrigins records that token r derives from the tokens ins.
func (s *tokenStore) setOrigins(r tokRef, ins []tokRef) {
	off := len(s.origins)
	for _, in := range ins {
		s.origins = append(s.origins, s.recs[in].id)
	}
	rec := &s.recs[r]
	rec.origins = span{uint32(off), uint32(len(ins))}
	rec.prim = ins[0]
}

// setValue overwrites token r's payload (`replace`).
func (s *tokenStore) setValue(l *LinkInfo, r tokRef, v filterc.Value) {
	off := s.arena.Len()
	filterc.EncodeValue(&s.arena, v)
	rec := &s.recs[r]
	rec.val = span{uint32(off), uint32(s.arena.Len() - off)}
	rec.typ = s.typeIndex(l, v.Type)
}

// eachTokenRoot calls f on every reference the model holds. It trims
// each recorded history to its bound first, so a compaction keeps only
// what `iface print` can show.
func (d *Debugger) eachTokenRoot(f func(*tokRef)) {
	for _, l := range d.linkList {
		for i := range l.inflight {
			f(&l.inflight[i])
		}
	}
	for _, a := range d.actorList {
		f(&a.lastTok)
		for i := range a.firingInputs {
			f(&a.firingInputs[i])
		}
		for _, conns := range [2][]*Connection{a.Inputs, a.Outputs} {
			for _, c := range conns {
				f(&c.lastTok)
				c.trimHistory()
				for i := range c.recorded {
					f(&c.recorded[i])
				}
			}
		}
	}
}

// compactTokens keeps the reachable records. A token's origins are
// older than it, so one backward sweep from the marked roots marks
// every primary-origin chain, and one forward pass copies the live
// records and assigns each its new index before any younger record
// refers to it.
func (d *Debugger) compactTokens() {
	s := &d.tokens
	n := len(s.recs)
	s.fwd = slices.Grow(s.fwd[:0], n)[:n]
	clear(s.fwd)
	d.eachTokenRoot(func(r *tokRef) { s.fwd[*r] = 1 })
	s.fwd[0] = 0
	for i := n - 1; i > 0; i-- {
		if s.fwd[i] != 0 && s.recs[i].prim != 0 {
			s.fwd[s.recs[i].prim] = 1
		}
	}
	recs := append(s.spareRecs[:0], tokenRec{})
	origins := s.spareOrigins[:0]
	s.spareArena.Reset()
	data := s.arena.Data()
	for i := 1; i < n; i++ {
		if s.fwd[i] == 0 {
			continue
		}
		rec := s.recs[i]
		off := s.spareArena.Len()
		s.spareArena.Raw(data[rec.val.off : rec.val.off+rec.val.n])
		rec.val.off = uint32(off)
		o := len(origins)
		origins = append(origins, s.origins[rec.origins.off:rec.origins.off+rec.origins.n]...)
		rec.origins.off = uint32(o)
		rec.prim = s.fwd[rec.prim]
		s.fwd[i] = tokRef(len(recs))
		recs = append(recs, rec)
	}
	d.eachTokenRoot(func(r *tokRef) { *r = s.fwd[*r] })
	s.spareRecs, s.recs = s.recs, recs
	s.spareOrigins, s.origins = s.origins, origins
	s.spareArena, s.arena = s.arena, s.spareArena
	s.limit = 2 * s.size()
	s.compactions++
}

// hop builds the Hop of token r: the link names its ends, the type
// table its type, and the arena holds its payload.
func (d *Debugger) hop(r tokRef) Hop {
	s := &d.tokens
	rec := &s.recs[r]
	l := d.linkList[rec.link]
	h := Hop{From: l.Src.Actor.Name, To: l.Dst.Actor.Name, Iface: l.Dst.Qualified(),
		Seq: rec.seq, At: rec.at}
	switch rec.from {
	case fromDebugger:
		h.From = "(debugger)"
	case fromUnstick:
		h.From = "(unstick)"
	}
	t := s.types[rec.typ]
	h.Type = "?"
	if t != nil {
		h.Type = t.String()
	}
	h.Val = filterc.DecodeValue(wire.NewReader(s.arena.Data()[rec.val.off:rec.val.off+rec.val.n]), t)
	return h
}

// token builds the read-side Token of r (nil for no token), with its
// provenance path.
func (d *Debugger) token(r tokRef) *Token {
	if r == 0 {
		return nil
	}
	s := &d.tokens
	rec := &s.recs[r]
	t := &Token{ID: rec.id, Popped: rec.popped,
		Origins: slices.Clone(s.origins[rec.origins.off : rec.origins.off+rec.origins.n])}
	for p := r; p != 0; p = s.recs[p].prim {
		t.path = append(t.path, d.hop(p))
	}
	t.Hop = t.path[0]
	return t
}
