package lowdbg

import (
	"fmt"
	"testing"

	"dfdbg/internal/dbginfo"
	"dfdbg/internal/filterc"
	"dfdbg/internal/sim"
)

// renderCases pairs each typed datum with the interface value an
// argument or return carried before arguments were typed.
func renderCases() []struct {
	name  string
	typed Datum
	boxed any
} {
	u8 := filterc.Scalar(filterc.U8)
	arr := filterc.Zero(filterc.ArrayOf(u8, 3))
	for i := range arr.Elems {
		arr.Elems[i] = filterc.Int(filterc.U8, int64(7*i))
	}
	st := filterc.Zero(&filterc.Type{Kind: filterc.KStruct, Name: "mb", Fields: []filterc.Field{
		{Name: "type", Type: filterc.Scalar(filterc.I16)},
		{Name: "coef", Type: filterc.ArrayOf(u8, 2)},
	}})
	st.Elems[0] = filterc.Int(filterc.I16, -3)
	st.Elems[1].Elems[1] = filterc.Int(filterc.U8, 200)
	scalar := filterc.Int(filterc.I32, -123456)
	str := filterc.StringVal(`say "hi"`)
	return []struct {
		name  string
		typed Datum
		boxed any
	}{
		{"none", Datum{}, nil},
		{"int64", Datum{Kind: IntDatum, I: -9_000_000_000}, int64(-9_000_000_000)},
		{"string", Datum{Kind: StringDatum, S: "pipe::Red2PipeCbMB_in"}, "pipe::Red2PipeCbMB_in"},
		{"empty string", Datum{Kind: StringDatum}, ""},
		{"scalar value", Val(scalar), scalar},
		{"string value", Val(str), str},
		{"void value", Val(filterc.VoidVal()), filterc.VoidVal()},
		{"untyped value", Val(filterc.Value{}), filterc.Value{}},
		{"array value", Val(arr), arr},
		{"struct value", Val(st), st},
	}
}

// The typed renderings are byte-identical to the fmt renderings of the
// interface-typed arguments and returns they replace: stop reasons
// embed them, so a difference would change every transcript that
// announces a function or finish breakpoint.
func TestTypedRenderingMatchesFmt(t *testing.T) {
	cases := renderCases()
	var args []Arg
	var boxed []string
	for _, c := range cases {
		a := Arg{Name: "x", Datum: c.typed}
		if got, want := a.String(), fmt.Sprintf("%s=%v", "x", c.boxed); got != want {
			t.Errorf("%s: Arg.String = %q, fmt renders %q", c.name, got, want)
		}
		if got, want := c.typed.String(), fmt.Sprintf("%v", c.boxed); got != want {
			t.Errorf("%s: Datum.String = %q, fmt renders %q", c.name, got, want)
		}
		if got, _ := ArgVal([]Arg{a}, "x"); fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", c.boxed) {
			t.Errorf("%s: ArgVal = %#v, want %#v", c.name, got, c.boxed)
		}
		args = append(args, a)
		boxed = append(boxed, fmt.Sprintf("%s=%v", a.Name, c.boxed))
	}
	want := ""
	for i, s := range boxed {
		if i > 0 {
			want += ", "
		}
		want += s
	}
	if got := formatArgs(args); got != want {
		t.Errorf("formatArgs = %q\nfmt renders %q", got, want)
	}
	if got := formatArgs(nil); got != "" {
		t.Errorf("formatArgs(nil) = %q", got)
	}
}

// Stop reasons announced by function and finish breakpoints render the
// call's arguments and return exactly as the fmt format strings did.
func TestStopReasonsRenderTypedArgs(t *testing.T) {
	for _, c := range renderCases() {
		k := sim.NewKernel()
		d := New(k, dbginfo.NewTable())
		entry := d.BreakFuncInternal("fn", func(*StopCtx) Disposition { return DispStop },
			func(*StopCtx) Disposition { return DispStop })
		args := []Arg{IntArg("link", 3), StrArg("src", "red"), {Name: "value", Datum: c.typed}}
		k.Spawn("target", func(p *sim.Proc) {
			if exit := d.EnterFunc(p, "fn", args); exit != nil {
				exit(c.typed)
			}
		})
		ev := d.Continue()
		want := fmt.Sprintf("Breakpoint %d, %s (%s)", entry.ID, "fn",
			fmt.Sprintf("link=%v, src=%v, value=%v", int64(3), "red", c.boxed))
		if ev.Reason != want {
			t.Errorf("%s: entry reason %q, want %q", c.name, ev.Reason, want)
		}
		ev = d.Continue()
		want = fmt.Sprintf("Finish breakpoint %d, %s returned %v", entry.ID, "fn", c.boxed)
		if ev.Reason != want || !ev.IsReturn {
			t.Errorf("%s: finish reason %q, want %q", c.name, ev.Reason, want)
		}
		if ev := d.Continue(); ev.Kind != StopDone {
			t.Fatalf("%s: final stop %v", c.name, ev)
		}
	}
}
