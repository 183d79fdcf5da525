package filterc

import "dfdbg/internal/ckpt/wire"

// EncodeValue serializes a runtime value for checkpoint state capture
// (DESIGN §13). The encoding is canonical — two Equal values encode to
// identical bytes — so replay verification can byte-compare captured
// dataflow state (module data/attribute objects, link ring tokens).
func EncodeValue(w *wire.Writer, v Value) {
	if v.Type == nil {
		w.U8(0xFF)
		return
	}
	w.U8(uint8(v.Type.Kind))
	switch v.Type.Kind {
	case KScalar:
		w.U8(uint8(v.Type.Base))
		switch v.Type.Base {
		case Str:
			w.Str(v.S)
		case Void:
		default:
			w.I64(v.I)
		}
	default: // KArray, KStruct: payload is the element sequence
		w.U32(uint32(len(v.Elems)))
		for _, e := range v.Elems {
			EncodeValue(w, e)
		}
	}
}

// DecodeValue reads back a value EncodeValue wrote. t is the value's
// type: the encoding carries each scalar's base type but not an
// aggregate's, so an array's elements take t.Elem and a struct's
// fields their declared types.
func DecodeValue(r *wire.Reader, t *Type) Value {
	kind := r.U8()
	if kind == 0xFF || r.Err() != nil {
		return Value{}
	}
	if TypeKind(kind) == KScalar {
		b := BaseType(r.U8())
		if t == nil || t.Kind != KScalar || t.Base != b {
			t = Scalar(b)
		}
		v := Value{Type: t}
		switch b {
		case Str:
			v.S = r.Str()
		case Void:
		default:
			v.I = r.I64()
		}
		return v
	}
	// Every element takes at least one byte, which bounds n on input
	// that is not what EncodeValue wrote.
	n := int(r.U32())
	if n > r.Rest() {
		n = r.Rest()
	}
	v := Value{Type: t, Elems: make([]Value, n)}
	for i := range v.Elems {
		var et *Type
		switch {
		case t == nil:
		case t.Kind == KArray:
			et = t.Elem
		case t.Kind == KStruct && i < len(t.Fields):
			et = t.Fields[i].Type
		}
		v.Elems[i] = DecodeValue(r, et)
	}
	return v
}
