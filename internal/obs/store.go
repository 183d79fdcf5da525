package obs

import (
	"encoding/binary"
	"slices"
	"strings"
	"sync"
	"unsafe"
)

// slot is an Event as the ring stores it. It holds no pointers, so the
// garbage collector never scans the ring and a recycled ring needs no
// zeroing: readers never look past the recorder's head. Names are ids
// into the storage's name table; a payload lives in the storage's byte
// arena, and the slot only says whether it has one.
type slot struct {
	at                 uint64
	arg, arg2          int64
	pe, link           int32
	actor, other, port uint32
	kind               Kind
	hasVal             bool
}

// nameCacheSize is the number of entries of the name cache (a power of
// two). The debugger's worlds record under about a hundred names.
const nameCacheSize = 256

// cachedName maps one producer string, by identity, to its name id. It
// holds the string, so no other string can take its address while the
// entry lives.
type cachedName struct {
	s  string
	id uint32
}

// storage is everything a recorder records into: the slot ring, the
// name table its slots point into, and the payload arena. It outlives
// its recorder on the spare list (see takeStorage).
type storage struct {
	slots []slot

	names []string          // id → name; names[0] is ""
	ids   map[string]uint32 // name → id, for lookups the cache misses
	cache [nameCacheSize]cachedName

	// vals is the payload arena: a byte ring (its length a power of two,
	// or 0) holding, in record order, each retained payload as a 4-byte
	// little-endian length and the bytes. valOff and valEnd are the
	// running positions of the oldest payload and of the end.
	vals           []byte
	valOff, valEnd uint64
}

func newStorage(capacity int) *storage {
	return &storage{
		slots: make([]slot, capacity),
		names: []string{""},
		ids:   make(map[string]uint32),
	}
}

// reset empties the storage for a new owner: no name and no payload of
// the previous one stays reachable. The slots keep their stale contents.
func (st *storage) reset() {
	clear(st.names[1:])
	st.names = st.names[:1]
	clear(st.ids)
	st.cache = [nameCacheSize]cachedName{}
	st.valOff, st.valEnd = 0, 0
}

// nameID interns s. Producers pass names that already exist (actor,
// port and module names), so the common lookup is a cache hit decided
// by the string's address and length, without hashing its bytes.
func (st *storage) nameID(s string) uint32 {
	if len(s) == 0 {
		return 0
	}
	p := unsafe.StringData(s)
	h := uintptr(unsafe.Pointer(p))
	c := &st.cache[(h>>3^h>>11)&(nameCacheSize-1)]
	if unsafe.StringData(c.s) == p && len(c.s) == len(s) {
		return c.id
	}
	id, ok := st.ids[s]
	if !ok {
		id = uint32(len(st.names))
		st.names = append(st.names, s)
		st.ids[s] = id
	}
	*c = cachedName{s: s, id: id}
	return id
}

// pushVal appends one payload to the arena, growing it when the
// retained payloads and this one would not fit.
func (st *storage) pushVal(v string) {
	need := st.valEnd - st.valOff + 4 + uint64(len(v))
	if need > uint64(len(st.vals)) {
		st.growVals(need)
	}
	at := st.valEnd & uint64(len(st.vals)-1)
	if at+4+uint64(len(v)) <= uint64(len(st.vals)) { // no wrap: one piece
		binary.LittleEndian.PutUint32(st.vals[at:], uint32(len(v)))
		copy(st.vals[at+4:], v)
	} else {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(v)))
		for i, c := range n {
			st.vals[(st.valEnd+uint64(i))&uint64(len(st.vals)-1)] = c
		}
		at = (st.valEnd + 4) & uint64(len(st.vals)-1)
		copy(st.vals, v[copy(st.vals[at:], v):])
	}
	st.valEnd += 4 + uint64(len(v))
}

// growVals moves the retained payloads to the start of an arena of at
// least need bytes. Slots record no arena positions, so moving is free.
func (st *storage) growVals(need uint64) {
	size := uint64(256)
	for size < need {
		size *= 2
	}
	vals := make([]byte, size)
	n := st.valEnd - st.valOff
	if n > 0 {
		a, b := st.span(st.valOff, n)
		copy(vals[copy(vals, a):], b)
	}
	st.vals, st.valOff, st.valEnd = vals, 0, n
}

// span returns the n arena bytes from pos as at most two pieces (the
// second is non-empty when they wrap the arena's end).
func (st *storage) span(pos, n uint64) (a, b []byte) {
	at := pos & uint64(len(st.vals)-1)
	if at+n <= uint64(len(st.vals)) {
		return st.vals[at : at+n], nil
	}
	return st.vals[at:], st.vals[:at+n-uint64(len(st.vals))]
}

// valLen reads the length of the payload record at pos.
func (st *storage) valLen(pos uint64) uint64 {
	at := pos & uint64(len(st.vals)-1)
	if at+4 <= uint64(len(st.vals)) {
		return uint64(binary.LittleEndian.Uint32(st.vals[at:]))
	}
	var n [4]byte
	for i := range n {
		n[i] = st.vals[(pos+uint64(i))&uint64(len(st.vals)-1)]
	}
	return uint64(binary.LittleEndian.Uint32(n[:]))
}

// dropVal releases the oldest payload.
func (st *storage) dropVal() { st.valOff += 4 + st.valLen(st.valOff) }

// valString copies payload pieces into a string of their own.
func valString(a, b []byte) string {
	if len(b) == 0 {
		return string(a)
	}
	var s strings.Builder
	s.Grow(len(a) + len(b))
	s.Write(a)
	s.Write(b)
	return s.String()
}

// maxSpares bounds the storage the spare list keeps, so an idle process
// holds a few rings, not one per world it ever ran.
const maxSpares = 8

// spares is the process-wide free list of retired storage: a world's
// storage comes back here when its stack is shut down, and the next
// recorder of the same capacity takes it instead of allocating. A debug
// server rebuilds a world on every restore and reverse-step, and each
// served world's ring holds 65,536 slots. Unlike a sync.Pool the list
// keeps its spares across garbage collections, so reuse is
// deterministic and the collector never sees the churn.
var spares struct {
	sync.Mutex
	free []*storage
}

// takeStorage returns empty storage of the given capacity, a spare one
// when the list has it.
func takeStorage(capacity int) *storage {
	spares.Lock()
	for i := len(spares.free) - 1; i >= 0; i-- {
		if st := spares.free[i]; len(st.slots) == capacity {
			spares.free = slices.Delete(spares.free, i, i+1)
			spares.Unlock()
			st.reset()
			return st
		}
	}
	spares.Unlock()
	return newStorage(capacity)
}

// putStorage hands retired storage to the spare list, evicting the
// oldest spare when the list is full.
func putStorage(st *storage) {
	spares.Lock()
	defer spares.Unlock()
	if len(spares.free) == maxSpares {
		spares.free = slices.Delete(spares.free, 0, 1)
	}
	spares.free = append(spares.free, st)
}
