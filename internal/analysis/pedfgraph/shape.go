package pedfgraph

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"dfdbg/internal/analysis"
	"dfdbg/internal/filterc"
	"dfdbg/internal/pedf"
)

// shapeMemoCap bounds the process-wide analysis memo. A process sees a
// few application shapes per recipe (one before and one after the
// framework's initialization phase); past the bound an arbitrary entry
// is evicted.
const shapeMemoCap = 64

// shape is what a world build derives from one full analysis of an
// application shape: the batch plans EnableBatch installs and the
// warning text InstallPreRun prints. Entries are never handed out:
// callers get copies of the plans, so entries stay immutable.
type shape struct {
	// pins holds every program the key names by address, so a freed
	// program's address can never alias a new one while the entry lives.
	pins  []*filterc.Program
	plans []pedf.BatchPlan
	warn  string // InstallPreRun's output, one "analysis: " line per diagnostic
}

var shapeMemo = struct {
	sync.Mutex
	m map[string]*shape
}{m: make(map[string]*shape)}

var analysisRuns, shapeHits atomic.Int64

// keyBufs recycles shape-key buffers; a memo hit allocates nothing for
// its key.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// AnalysisRuns reports how many full analyses (Analyze) have run, for
// the analysis_runs_total observability counter.
func AnalysisRuns() int64 { return analysisRuns.Load() }

// AnalysisMemoHits reports how many world-build analyses (batch plans,
// pre-run warnings) were served from the memo, for the
// analysis_memo_hits_total observability counter.
func AnalysisMemoHits() int64 { return shapeHits.Load() }

// shapeOf returns the derived analysis of rt's current shape, from the
// memo when a runtime of the same shape was analyzed before in this
// process (DESIGN §10).
func shapeOf(rt *pedf.Runtime, name string) (*shape, error) {
	// The key reads the elaborated links; Analyze would elaborate the
	// same way.
	if err := rt.Elaborate(false); err != nil {
		return nil, err
	}
	bp := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(bp)
	*bp = appendShapeKey((*bp)[:0], rt, name)
	key := *bp
	shapeMemo.Lock()
	s, ok := shapeMemo.m[string(key)]
	shapeMemo.Unlock()
	if ok {
		shapeHits.Add(1)
		return s, nil
	}
	s, err := analyzeShape(rt, name)
	if err != nil {
		return nil, err
	}
	shapeMemo.Lock()
	if len(shapeMemo.m) >= shapeMemoCap {
		for old := range shapeMemo.m {
			delete(shapeMemo.m, old)
			break
		}
	}
	shapeMemo.m[string(key)] = s
	shapeMemo.Unlock()
	return s, nil
}

// analyzeShape runs the full analysis and keeps what world builds use.
func analyzeShape(rt *pedf.Runtime, name string) (*shape, error) {
	rep, _, err := Analyze(rt, name)
	if err != nil {
		return nil, err
	}
	s := &shape{}
	for _, f := range rt.Actors() {
		if f.Prog != nil {
			s.pins = append(s.pins, f.Prog)
		}
	}
	for _, p := range analysis.ExecutablePlans(rep.Regions) {
		bp := pedf.BatchPlan{Region: p.Region, Actors: p.Actors}
		for _, st := range p.Steps {
			ent := st.Actor
			if st.Count > 1 {
				ent = fmt.Sprintf("%s*%d", st.Actor, st.Count)
			}
			bp.Schedule = append(bp.Schedule, ent)
		}
		for _, r := range p.Rings {
			bp.Rings = append(bp.Rings, pedf.BatchRing{Link: int(r.Link), Slots: r.Slots})
		}
		s.plans = append(s.plans, bp)
	}
	var w strings.Builder
	for _, d := range rep.Diags {
		if d.Sev >= analysis.Warning {
			fmt.Fprintf(&w, "analysis: %s\n", d.String())
		}
	}
	s.warn = w.String()
	return s, nil
}

// clonePlans is a deep copy of a memo entry's plans.
func clonePlans(plans []pedf.BatchPlan) []pedf.BatchPlan {
	if plans == nil {
		return nil
	}
	out := make([]pedf.BatchPlan, len(plans))
	for i, p := range plans {
		out[i] = pedf.BatchPlan{
			Region:   p.Region,
			Actors:   append([]string(nil), p.Actors...),
			Schedule: append([]string(nil), p.Schedule...),
			Rings:    append([]pedf.BatchRing(nil), p.Rings...),
		}
	}
	return out
}

// resetAnalysisMemo empties the memo; tests use it to compare memoized
// results against a fresh analysis.
func resetAnalysisMemo() {
	shapeMemo.Lock()
	clear(shapeMemo.m)
	shapeMemo.Unlock()
}

// appendShapeKey encodes everything of an elaborated runtime that
// Analyze reads: the application name; the module ports that leave an
// actor port dangling on purpose; per actor, in creation order, its
// name, role, module, program and the declared names, types and current
// values of its interfaces, data and attributes; per link its id,
// endpoints, kind, capacity and occupancy; per feed its source and
// count. Every string is length-prefixed and every record tagged, so
// two keys are equal only if their inputs are.
func appendShapeKey(b []byte, rt *pedf.Runtime, name string) []byte {
	b = appendStr(b, name)
	for _, m := range rt.Modules() {
		for _, pn := range m.Ports() {
			p := m.Port(pn)
			if e := p.Endpoint(); e != p && e.Link() == nil {
				b = appendPortRef(append(b, 'x'), e)
			}
		}
	}
	for _, f := range rt.Actors() {
		b = appendStr(append(b, 'a'), f.Name)
		b = append(b, byte(f.Role))
		b = appendStr(b, f.Module.Name)
		b = binary.LittleEndian.AppendUint64(b, uint64(uintptr(unsafe.Pointer(f.Prog))))
		for _, n := range f.Inputs() {
			b = appendType(appendStr(append(b, 'i'), n), f.In(n).Type)
		}
		for _, n := range f.Outputs() {
			b = appendType(appendStr(append(b, 'o'), n), f.Out(n).Type)
		}
		for _, n := range f.DataNames() {
			if v, ok := f.DataVal(n); ok {
				b = appendValue(appendType(appendStr(append(b, 'd'), n), v.Type), v)
			}
		}
		for _, n := range f.AttrNames() {
			if v, ok := f.AttrVal(n); ok {
				b = appendValue(appendType(appendStr(append(b, 't'), n), v.Type), v)
			}
		}
	}
	for _, l := range rt.Links() {
		b = binary.AppendUvarint(append(b, 'l'), uint64(l.ID))
		b = appendPortRef(appendPortRef(b, l.Src), l.Dst)
		b = append(b, byte(l.Kind))
		b = binary.AppendVarint(b, int64(l.Cap))
		b = binary.AppendVarint(b, int64(l.Occupancy()))
	}
	for _, fd := range rt.Feeds() {
		b = appendPortRef(append(b, 'f'), fd.Src)
		b = binary.AppendVarint(b, int64(fd.Count))
	}
	return b
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendPortRef names a port by its owner and name; an actorless
// (environment) port also carries its type, as the analysis graph does.
func appendPortRef(b []byte, p *pedf.Port) []byte {
	b = appendStr(appendStr(b, p.ActorName), p.Name)
	b = append(b, byte(p.Dir))
	if p.Owner() == nil {
		b = appendType(b, p.Type)
	}
	return b
}

// appendType encodes a type with its array shape and struct layout.
func appendType(b []byte, t *filterc.Type) []byte {
	if t == nil {
		return append(b, 'n')
	}
	switch t.Kind {
	case filterc.KArray:
		b = binary.AppendUvarint(append(b, 'v'), uint64(t.Len))
		return appendType(b, t.Elem)
	case filterc.KStruct:
		b = appendStr(append(b, 's'), t.Name)
		b = binary.AppendUvarint(b, uint64(len(t.Fields)))
		for _, f := range t.Fields {
			b = appendType(appendStr(b, f.Name), f.Type)
		}
		return b
	default:
		return binary.AppendUvarint(append(b, 'k'), uint64(t.Base))
	}
}

// appendValue encodes a value's payload; its type is encoded beside it.
func appendValue(b []byte, v *filterc.Value) []byte {
	b = binary.AppendVarint(b, v.I)
	b = appendStr(b, v.S)
	b = binary.AppendUvarint(b, uint64(len(v.Elems)))
	for i := range v.Elems {
		b = appendValue(b, &v.Elems[i])
	}
	return b
}
