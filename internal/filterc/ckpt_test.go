package filterc

import (
	"testing"

	"dfdbg/internal/ckpt/wire"
)

// TestDecodeValueRoundTrip reads back what EncodeValue wrote for each
// kind of value: every scalar base, a string, the nil value, and a
// struct holding an array, with the declared type naming the
// aggregates.
func TestDecodeValueRoundTrip(t *testing.T) {
	arr := ArrayOf(Scalar(I16), 3)
	st := &Type{Kind: KStruct, Name: "S_t", Fields: []Field{
		{Name: "A", Type: Scalar(U8)}, {Name: "B", Type: arr}, {Name: "C", Type: Scalar(I32)},
	}}
	sv := Zero(st)
	sv.Elems[0] = Int(U8, 200)
	sv.Elems[1].Elems[2] = Int(I16, -7)
	sv.Elems[2] = Int(I32, -1<<31)
	cases := []struct {
		v Value
		t *Type
	}{
		{Int(U8, 255), Scalar(U8)}, {Int(U16, 65535), Scalar(U16)}, {Int(U32, 1<<32-1), Scalar(U32)},
		{Int(I8, -128), Scalar(I8)}, {Int(I16, -3), Scalar(I16)}, {Int(I32, 42), Scalar(I32)},
		{Int(Bool, 1), Scalar(Bool)}, {StringVal("a\"b"), Scalar(Str)}, {VoidVal(), Scalar(Void)},
		{Value{}, nil}, {Zero(arr), arr}, {sv, st},
	}
	for _, c := range cases {
		w := wire.NewWriter()
		EncodeValue(w, c.v)
		r := wire.NewReader(w.Data())
		got := DecodeValue(r, c.t)
		if r.Err() != nil || r.Rest() != 0 {
			t.Errorf("%s: decode left %d bytes, err %v", c.v, r.Rest(), r.Err())
		}
		if got.String() != c.v.String() || got.Type != c.v.Type || !got.Equal(c.v) {
			t.Errorf("decoded %s (%v), want %s (%v)", got, got.Type, c.v, c.v.Type)
		}
	}
	// Truncated input decodes to what it holds, without panicking.
	w := wire.NewWriter()
	EncodeValue(w, sv)
	for n := range w.Data() {
		DecodeValue(wire.NewReader(w.Data()[:n]), st)
	}
}
