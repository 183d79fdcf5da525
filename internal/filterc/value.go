// Package filterc implements the restricted C subset in which PEDF
// filters (and module controllers) are written. The paper (Section IV-C)
// specifies that filter code uses "a restricted subset of the C language"
// suitable for RTL synthesis, with dataflow accessors pedf.io.NAME[n],
// pedf.data.NAME and pedf.attribute.NAME.
//
// filterc provides a lexer, a recursive-descent parser producing an AST
// with full source positions, and a tree-walking interpreter with
// debugger hooks at statement granularity — the analogue of compiled C
// with DWARF line information, which is what gives the low-level debugger
// genuine source-line breakpoints, stepping and variable inspection.
package filterc

import (
	"fmt"
	"strconv"
	"strings"
)

// BaseType enumerates scalar types of the subset (the ADL's U8/U16/U32
// plus signed variants used by decoder arithmetic).
type BaseType int

const (
	// U8 is an unsigned 8-bit integer.
	U8 BaseType = iota
	// U16 is an unsigned 16-bit integer.
	U16
	// U32 is an unsigned 32-bit integer.
	U32
	// I8 is a signed 8-bit integer.
	I8
	// I16 is a signed 16-bit integer.
	I16
	// I32 is a signed 32-bit integer.
	I32
	// Bool is the result type of comparisons (stored 0/1, width 1).
	Bool
	// Str is the type of string literals (only valid as intrinsic
	// arguments: ACTOR_START("name") etc.).
	Str
	// Void is the unit type of statements and void functions.
	Void
)

func (b BaseType) String() string {
	switch b {
	case U8:
		return "U8"
	case U16:
		return "U16"
	case U32:
		return "U32"
	case I8:
		return "I8"
	case I16:
		return "I16"
	case I32:
		return "I32"
	case Bool:
		return "bool"
	case Str:
		return "string"
	case Void:
		return "void"
	default:
		return fmt.Sprintf("BaseType(%d)", int(b))
	}
}

// Signed reports whether the type uses two's-complement interpretation.
func (b BaseType) Signed() bool { return b == I8 || b == I16 || b == I32 }

// Bits returns the storage width.
func (b BaseType) Bits() int {
	switch b {
	case U8, I8:
		return 8
	case U16, I16:
		return 16
	case Bool:
		return 1
	default:
		return 32
	}
}

// BaseTypeByName resolves a type name as written in source or in the ADL
// (both `u32` and `U32` spellings are accepted; `int` is an alias of I32).
func BaseTypeByName(name string) (BaseType, bool) {
	switch strings.ToLower(name) {
	case "u8":
		return U8, true
	case "u16":
		return U16, true
	case "u32":
		return U32, true
	case "i8":
		return I8, true
	case "i16":
		return I16, true
	case "i32", "int":
		return I32, true
	case "void":
		return Void, true
	default:
		return 0, false
	}
}

// TypeKind distinguishes scalars, arrays and structs.
type TypeKind int

const (
	// KScalar is a scalar base type.
	KScalar TypeKind = iota
	// KArray is a fixed-length array of a scalar element type.
	KArray
	// KStruct is a named structure with scalar or array fields.
	KStruct
)

// Field is one member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Type describes a filterc value's type.
type Type struct {
	Kind   TypeKind
	Base   BaseType // KScalar
	Elem   *Type    // KArray element type
	Len    int      // KArray length
	Name   string   // KStruct type name
	Fields []Field  // KStruct members
}

// scalarTypes holds the canonical (shared, immutable) scalar types so
// that Int() — called for every arithmetic result — does not allocate.
var scalarTypes = [...]Type{
	U8:   {Kind: KScalar, Base: U8},
	U16:  {Kind: KScalar, Base: U16},
	U32:  {Kind: KScalar, Base: U32},
	I8:   {Kind: KScalar, Base: I8},
	I16:  {Kind: KScalar, Base: I16},
	I32:  {Kind: KScalar, Base: I32},
	Bool: {Kind: KScalar, Base: Bool},
	Str:  {Kind: KScalar, Base: Str},
	Void: {Kind: KScalar, Base: Void},
}

// Scalar returns the canonical scalar type for a base type. The result
// is shared and must not be mutated.
func Scalar(b BaseType) *Type {
	if int(b) < len(scalarTypes) {
		return &scalarTypes[b]
	}
	return &Type{Kind: KScalar, Base: b}
}

// ArrayOf returns an array type.
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: KArray, Elem: elem, Len: n} }

func (t *Type) String() string {
	switch t.Kind {
	case KScalar:
		return t.Base.String()
	case KArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case KStruct:
		return t.Name
	default:
		return "?"
	}
}

// FieldIndex returns the position of a struct field, or -1.
func (t *Type) FieldIndex(name string) int {
	for i, f := range t.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Value is a filterc runtime value. Scalars store their (already
// truncated) numeric payload in I; arrays and structs hold element values.
type Value struct {
	Type  *Type
	I     int64   // KScalar payload, truncated per Type.Base
	S     string  // Str payload
	Elems []Value // KArray elements or KStruct fields (by field order)
}

// Zero returns the zero value of a type.
func Zero(t *Type) Value {
	switch t.Kind {
	case KScalar:
		return Value{Type: t}
	case KArray:
		v := Value{Type: t, Elems: make([]Value, t.Len)}
		for i := range v.Elems {
			v.Elems[i] = Zero(t.Elem)
		}
		return v
	case KStruct:
		v := Value{Type: t, Elems: make([]Value, len(t.Fields))}
		for i, f := range t.Fields {
			v.Elems[i] = Zero(f.Type)
		}
		return v
	default:
		return Value{Type: t}
	}
}

// Int builds a scalar value of the given base type, truncating i to the
// type's width and signedness. The common 32-bit bases are special-cased
// to plain register conversions (equivalent to truncate, measurably
// cheaper on the interpreter hot path).
func Int(b BaseType, i int64) Value {
	switch b {
	case I32:
		return Value{Type: &scalarTypes[I32], I: int64(int32(i))}
	case U32:
		return Value{Type: &scalarTypes[U32], I: int64(uint32(i))}
	case Bool:
		if i != 0 {
			i = 1
		}
		return Value{Type: &scalarTypes[Bool], I: i}
	}
	return Value{Type: Scalar(b), I: truncate(b, i)}
}

// StringVal builds a string-literal value.
func StringVal(s string) Value {
	return Value{Type: Scalar(Str), S: s}
}

// VoidVal is the unit value.
func VoidVal() Value { return Value{Type: Scalar(Void)} }

// truncate wraps i into the representable range of b.
func truncate(b BaseType, i int64) int64 {
	bits := uint(b.Bits())
	if b == Bool {
		if i != 0 {
			return 1
		}
		return 0
	}
	mask := int64(1)<<bits - 1
	if bits >= 64 {
		return i
	}
	u := i & mask
	if b.Signed() && u&(1<<(bits-1)) != 0 {
		u -= 1 << bits
	}
	return u
}

// IsScalar reports whether v holds a numeric scalar.
func (v Value) IsScalar() bool {
	return v.Type != nil && v.Type.Kind == KScalar && v.Type.Base != Str && v.Type.Base != Void
}

// Truth reports C truthiness.
func (v Value) Truth() bool { return v.I != 0 }

// Clone deep-copies a value (assignment semantics are by value, as in C
// structs/arrays). Scalar clones are a plain struct copy and never touch
// the heap; aggregates allocate a fresh element slice.
func (v Value) Clone() Value {
	out := v
	if v.Elems != nil {
		out.Elems = make([]Value, len(v.Elems))
		for i, e := range v.Elems {
			out.Elems[i] = e.Clone()
		}
	}
	return out
}

// CloneInto deep-copies v into *dst, reusing dst's element storage when
// its capacity suffices. A slot that is cloned into repeatedly (a ring
// buffer cell, a read-window cache entry) therefore reaches a steady
// state with zero allocations while preserving Clone's value semantics:
// dst shares no mutable state with v afterwards.
func (v Value) CloneInto(dst *Value) {
	elems := dst.Elems
	*dst = v
	if v.Elems == nil {
		return
	}
	if cap(elems) >= len(v.Elems) {
		dst.Elems = elems[:len(v.Elems)]
	} else {
		dst.Elems = make([]Value, len(v.Elems))
	}
	for i := range v.Elems {
		v.Elems[i].CloneInto(&dst.Elems[i])
	}
}

// Equal reports deep equality of two values (types compared structurally).
func (v Value) Equal(o Value) bool {
	if v.Type == nil || o.Type == nil {
		return v.Type == o.Type
	}
	if v.Type.Kind != o.Type.Kind {
		return false
	}
	switch v.Type.Kind {
	case KScalar:
		if v.Type.Base == Str {
			return o.Type.Base == Str && v.S == o.S
		}
		return v.I == o.I
	default:
		if len(v.Elems) != len(o.Elems) {
			return false
		}
		for i := range v.Elems {
			if !v.Elems[i].Equal(o.Elems[i]) {
				return false
			}
		}
		return true
	}
}

// String renders the value the way the debugger prints it: decimal
// integers, Go-quoted strings, "void", "[1, 2]" for arrays and
// "{Addr = 5213, Izz = 0}" for structs ("<nil>" for an untyped value).
func (v Value) String() string {
	var buf [64]byte
	return string(v.AppendString(buf[:0]))
}

// AppendString appends String's rendering of v to b and returns the
// extended buffer. A caller that keeps b across calls renders without
// allocating beyond the final string conversion.
func (v Value) AppendString(b []byte) []byte {
	if v.Type == nil {
		return append(b, "<nil>"...)
	}
	switch v.Type.Kind {
	case KScalar:
		switch v.Type.Base {
		case Str:
			return strconv.AppendQuote(b, v.S)
		case Void:
			return append(b, "void"...)
		default:
			return strconv.AppendInt(b, v.I, 10)
		}
	case KArray:
		b = append(b, '[')
		for i := range v.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = v.Elems[i].AppendString(b)
		}
		return append(b, ']')
	case KStruct:
		b = append(b, '{')
		for i := range v.Elems {
			if i > 0 {
				b = append(b, ", "...)
			}
			b = append(b, v.Type.Fields[i].Name...)
			b = append(b, " = "...)
			b = v.Elems[i].AppendString(b)
		}
		return append(b, '}')
	default:
		return append(b, '?')
	}
}

// Convert coerces a scalar value to base type b (C-style truncation).
func (v Value) Convert(b BaseType) (Value, error) {
	if !v.IsScalar() && !(v.Type.Kind == KScalar && v.Type.Base == Bool) {
		return Value{}, fmt.Errorf("filterc: cannot convert %s to %s", v.Type, b)
	}
	return Int(b, v.I), nil
}
