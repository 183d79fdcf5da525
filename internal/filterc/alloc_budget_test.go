package filterc_test

import (
	"sort"
	"testing"

	"dfdbg/internal/filterc"
	"dfdbg/internal/h264"
)

// budgetEnv serves preallocated tokens and storage, so that every
// allocation AllocsPerRun counts is the interpreter's own.
type budgetEnv struct {
	tokens map[string]filterc.Value
	vars   map[string]*filterc.Value
}

func newBudgetEnv() *budgetEnv {
	u32 := func(v int64) *filterc.Value { x := filterc.Int(filterc.U32, v); return &x }
	i32s := func(n int) *filterc.Value {
		x := filterc.Zero(filterc.ArrayOf(filterc.Scalar(filterc.I32), n))
		return &x
	}
	mb, blk := filterc.Zero(h264.CbCrMBType), filterc.Zero(h264.BlkType)
	for k := range mb.Elems[3].Elems {
		mb.Elems[3].Elems[k] = filterc.Int(filterc.I32, int64(k*3-20))
		blk.Elems[1].Elems[k] = filterc.Int(filterc.I32, int64(k*7))
	}
	return &budgetEnv{
		tokens: map[string]filterc.Value{
			"Red2PipeCbMB_in": mb, "Pipe_in": mb,
			"Add2Dblock_ipred_in": blk, "Blk_in": blk,
		},
		vars: map[string]*filterc.Value{
			"mbs_parsed": u32(0), "next_addr": u32(5), "cnt": u32(7),
			"addr_mismatch": u32(0), "izz_total": u32(0),
			"topbuf": i32s(32), "leftbuf": i32s(4), "rcol": i32s(4),
			"qp": u32(4), "n_y": u32(4), "n_c": u32(1), "blocks_per_frame": u32(6),
			"bpr": u32(2), "bpr_c": u32(1), "n_mbs": u32(1 << 20),
		},
	}
}

func (e *budgetEnv) IORead(iface string, idx int64) (filterc.Value, error) {
	if v, ok := e.tokens[iface]; ok {
		return v, nil
	}
	return filterc.Int(filterc.U32, 1+idx%3), nil
}

func (e *budgetEnv) IOWrite(string, int64, filterc.Value) error { return nil }

func (e *budgetEnv) DataRef(name string) (*filterc.Value, error) { return e.vars[name], nil }

func (e *budgetEnv) AttrRef(name string) (*filterc.Value, error) { return e.vars[name], nil }

func (e *budgetEnv) Intrinsic(name string, args []filterc.Value) (filterc.Value, bool, error) {
	if name == "STEP_INDEX" {
		return filterc.Int(filterc.U32, 1), true, nil
	}
	return filterc.VoidVal(), true, nil
}

type stmtCounter struct{ n int }

func (h *stmtCounter) OnStmt(*filterc.Frame, filterc.Pos)   { h.n++ }
func (h *stmtCounter) OnEnter(*filterc.Frame)               {}
func (h *stmtCounter) OnExit(*filterc.Frame, filterc.Value) {}

// TestWorkCallAllocatesNothing pins the VM's allocation budget: once an
// Interp has run a function, calling it again allocates nothing, hooks
// installed as in production. Aggregates move by reference into
// recycled activations; an allocation per call anywhere in the
// interpreter fails this test for every work function that reaches it.
func TestWorkCallAllocatesNothing(t *testing.T) {
	srcs := h264.DecoderSources()
	files := make([]string, 0, len(srcs))
	for f := range srcs {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, file := range files {
		prog, err := filterc.Parse(file, srcs[file])
		if err != nil {
			t.Fatal(err)
		}
		in := filterc.New(prog, newBudgetEnv())
		in.Engine = filterc.EngineVM
		hooks := &stmtCounter{}
		in.Hooks = hooks
		call := func() {
			if _, err := in.CallFunc("work", nil); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
		call()
		if hooks.n == 0 {
			t.Fatalf("%s: work ran no statements", file)
		}
		if allocs := testing.AllocsPerRun(50, call); allocs != 0 {
			t.Errorf("%s: a steady-state work call allocated %.1f objects, want 0", file, allocs)
		}
	}
}
