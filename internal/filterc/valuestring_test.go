package filterc

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// fmtString is the fmt-based renderer that Value.String replaced, kept
// as the byte-identity oracle: rendered payloads land in the obs ring,
// in captured checkpoint state and in session transcripts.
func fmtString(v Value) string {
	if v.Type == nil {
		return "<nil>"
	}
	switch v.Type.Kind {
	case KScalar:
		switch v.Type.Base {
		case Str:
			return fmt.Sprintf("%q", v.S)
		case Void:
			return "void"
		default:
			return fmt.Sprintf("%d", v.I)
		}
	case KArray:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = fmtString(e)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KStruct:
		parts := make([]string, len(v.Elems))
		for i, e := range v.Elems {
			parts[i] = fmt.Sprintf("%s = %s", v.Type.Fields[i].Name, fmtString(e))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	default:
		return "?"
	}
}

// renderStrings are string payloads and field names that stress the
// quoting: quotes and backslashes, control bytes, non-ASCII runes and
// invalid UTF-8.
var renderStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, "tab\tnew\nline", "\x00\x7f",
	"héllo", "日本語", "emoji \U0001F600", "\xff\xfe", "bad\xc3(utf8", " ",
}

// randValue builds a random value up to depth levels of nesting. It
// covers every scalar base (negative and extreme integers, strings,
// void), nil types, unknown kinds, and nested arrays and structs.
func randValue(r *rand.Rand, depth int, strs []string) Value {
	pick := func() string { return strs[r.Intn(len(strs))] }
	n := r.Intn(12)
	if depth <= 0 && n >= 9 {
		n = r.Intn(9)
	}
	switch n {
	case 0:
		return Value{} // nil type
	case 1:
		return Value{Type: &Type{Kind: TypeKind(3 + r.Intn(4))}}
	case 2:
		return StringVal(pick())
	case 3:
		return VoidVal()
	case 4:
		return Value{Type: Scalar(I32), I: []int64{math.MinInt64, math.MaxInt64, -1, 0}[r.Intn(4)]}
	case 5, 6, 7, 8:
		b := []BaseType{U8, U16, U32, I8, I16, I32, Bool}[r.Intn(7)]
		return Value{Type: Scalar(b), I: r.Int63n(1<<33) - 1<<32}
	case 9, 10:
		elems := make([]Value, r.Intn(5))
		for i := range elems {
			elems[i] = randValue(r, depth-1, strs)
		}
		return Value{Type: ArrayOf(Scalar(I32), len(elems)), Elems: elems}
	default:
		elems := make([]Value, r.Intn(5))
		fields := make([]Field, len(elems))
		for i := range elems {
			elems[i] = randValue(r, depth-1, strs)
			fields[i] = Field{Name: pick(), Type: elems[i].Type}
		}
		return Value{Type: &Type{Kind: KStruct, Name: pick(), Fields: fields}, Elems: elems}
	}
}

func TestValueStringMatchesFmtOracle(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		v := randValue(r, 4, renderStrings)
		if got, want := v.String(), fmtString(v); got != want {
			t.Fatalf("value %d: String() = %q, fmt oracle = %q", i, got, want)
		}
		prefix := []byte("prefix:")
		if got := string(v.AppendString(prefix)); got != "prefix:"+fmtString(v) {
			t.Fatalf("value %d: AppendString did not append: %q", i, got)
		}
	}
}

func FuzzValueString(f *testing.F) {
	for i, s := range renderStrings {
		f.Add(int64(i), s)
	}
	f.Fuzz(func(t *testing.T, seed int64, s string) {
		r := rand.New(rand.NewSource(seed))
		v := randValue(r, 3, append([]string{s}, renderStrings...))
		if got, want := v.String(), fmtString(v); got != want {
			t.Fatalf("String() = %q, fmt oracle = %q", got, want)
		}
	})
}
