package dbginfo

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestMangleFilterWorkMatchesPaper(t *testing.T) {
	// Section VI-F gives this example verbatim.
	if got := MangleFilterWork("ipf"); got != "IpfFilter_work_function" {
		t.Errorf("MangleFilterWork(ipf) = %q, want IpfFilter_work_function", got)
	}
}

func TestMangleControllerWorkMatchesPaper(t *testing.T) {
	// Section VI-F: controller pred_controller → _component_PredModule_anon_0_work.
	if got := MangleControllerWork("pred"); got != "_component_PredModule_anon_0_work" {
		t.Errorf("MangleControllerWork(pred) = %q, want _component_PredModule_anon_0_work", got)
	}
}

func TestDemangleFilterWork(t *testing.T) {
	d, ok := Demangle("IpfFilter_work_function")
	if !ok {
		t.Fatal("Demangle failed")
	}
	if d.Entity != EntFilter || d.Owner != "ipf" || d.Member != "work" {
		t.Errorf("Demangled = %+v", d)
	}
}

func TestDemangleControllerWork(t *testing.T) {
	d, ok := Demangle("_component_PredModule_anon_0_work")
	if !ok {
		t.Fatal("Demangle failed")
	}
	if d.Entity != EntController || d.Owner != "pred" || d.Member != "work" {
		t.Errorf("Demangled = %+v", d)
	}
}

func TestDemangleFilterData(t *testing.T) {
	name := MangleFilterData("red", "a_private_data")
	if name != "RedFilter_data_a_private_data" {
		t.Fatalf("MangleFilterData = %q", name)
	}
	d, ok := Demangle(name)
	if !ok || d.Entity != EntFilter || d.Owner != "red" || d.Member != "a_private_data" {
		t.Errorf("Demangled = %+v ok=%v", d, ok)
	}
}

func TestDemangleRejectsPlainNames(t *testing.T) {
	for _, n := range []string{"pedf_link_push", "main", "", "Filter_work_function",
		"_component_Module_anon_0_work", "XFilter_data_"} {
		if _, ok := Demangle(n); ok {
			t.Errorf("Demangle(%q) succeeded, want failure", n)
		}
	}
}

// Property: mangling then demangling a lower-case identifier round-trips.
func TestQuickMangleRoundTrip(t *testing.T) {
	names := []string{"a", "pipe", "ipred", "hwcfg", "bh", "red", "mb", "front",
		"pred", "filter_1", "aVeryLongFilterName"}
	for _, n := range names {
		d, ok := Demangle(MangleFilterWork(n))
		if !ok || d.Owner != n || d.Entity != EntFilter {
			t.Errorf("filter round-trip failed for %q: %+v ok=%v", n, d, ok)
		}
		d, ok = Demangle(MangleControllerWork(n))
		if !ok || d.Owner != n || d.Entity != EntController {
			t.Errorf("controller round-trip failed for %q: %+v ok=%v", n, d, ok)
		}
	}
	// Randomized variant over simple identifiers.
	f := func(raw string) bool {
		n := sanitizeIdent(raw)
		if n == "" {
			return true
		}
		d, ok := Demangle(MangleFilterWork(n))
		return ok && d.Owner == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sanitizeIdent maps an arbitrary string to a lower-first ASCII identifier
// (or "" if nothing survives), constraining the quick.Check domain.
func sanitizeIdent(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + 'a' - 'A')
		}
	}
	out := b.String()
	for len(out) > 0 && (out[0] == '_' || (out[0] >= '0' && out[0] <= '9')) {
		out = out[1:]
	}
	return out
}

func TestTableDefineLookup(t *testing.T) {
	tab := NewTable()
	s, err := tab.Define(Symbol{Name: "pedf_link_push", Kind: SymFunc, Entity: EntRuntime})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pretty != "pedf_link_push" {
		t.Errorf("Pretty defaulted to %q", s.Pretty)
	}
	if tab.Lookup("pedf_link_push") != s {
		t.Error("Lookup failed")
	}
	if tab.Lookup("nope") != nil {
		t.Error("Lookup(nope) should be nil")
	}
	if _, err := tab.Define(Symbol{Name: "pedf_link_push"}); err == nil {
		t.Error("duplicate Define should fail")
	}
	if _, err := tab.Define(Symbol{}); err == nil {
		t.Error("empty-name Define should fail")
	}
}

func TestTableLookupPrettyAndOwned(t *testing.T) {
	tab := NewTable()
	tab.MustDefine(Symbol{Name: MangleFilterWork("ipf"), Pretty: "ipf::work",
		Kind: SymFunc, Entity: EntFilter, Owner: "ipf"})
	tab.MustDefine(Symbol{Name: MangleFilterData("ipf", "thr"), Pretty: "ipf.thr",
		Kind: SymData, Entity: EntFilter, Owner: "ipf"})
	tab.MustDefine(Symbol{Name: "pedf_link_pop", Kind: SymFunc, Entity: EntRuntime})
	if s := tab.LookupPretty("ipf::work"); s == nil || s.Name != "IpfFilter_work_function" {
		t.Errorf("LookupPretty = %v", s)
	}
	if tab.LookupPretty("nothing") != nil {
		t.Error("LookupPretty(nothing) should be nil")
	}
	owned := tab.OwnedBy("ipf")
	if len(owned) != 2 {
		t.Errorf("OwnedBy(ipf) = %d symbols, want 2", len(owned))
	}
	if len(tab.Symbols()) != 3 {
		t.Errorf("Symbols() = %d, want 3", len(tab.Symbols()))
	}
}

func TestTableComplete(t *testing.T) {
	tab := NewTable()
	for _, n := range []string{"pedf_link_push", "pedf_link_pop", "pedf_actor_start", "main"} {
		tab.MustDefine(Symbol{Name: n, Kind: SymFunc})
	}
	got := tab.Complete("pedf_link_")
	if len(got) != 2 || got[0] != "pedf_link_pop" || got[1] != "pedf_link_push" {
		t.Errorf("Complete = %v", got)
	}
	if got := tab.Complete("zzz"); len(got) != 0 {
		t.Errorf("Complete(zzz) = %v, want empty", got)
	}
}

func TestLineTableNearestStmt(t *testing.T) {
	tab := NewTable()
	lt := tab.LineTableFor("the_source.c")
	lt.AddStmt(10, "f")
	lt.AddStmt(12, "f")
	lt.AddStmt(20, "g")
	cases := []struct {
		ask      int
		wantLine int
		wantFn   string
		wantOK   bool
	}{
		{1, 10, "f", true},
		{10, 10, "f", true},
		{11, 12, "f", true},
		{13, 20, "g", true},
		{20, 20, "g", true},
		{21, 0, "", false},
	}
	for _, c := range cases {
		l, fn, ok := lt.NearestStmt(c.ask)
		if l != c.wantLine || fn != c.wantFn || ok != c.wantOK {
			t.Errorf("NearestStmt(%d) = (%d,%q,%v), want (%d,%q,%v)",
				c.ask, l, fn, ok, c.wantLine, c.wantFn, c.wantOK)
		}
	}
	if !lt.HasStmt(12) || lt.HasStmt(11) {
		t.Error("HasStmt wrong")
	}
	if lt.FuncAt(20) != "g" || lt.FuncAt(15) != "" {
		t.Error("FuncAt wrong")
	}
	if len(lt.Stmts()) != 3 {
		t.Errorf("Stmts = %v", lt.Stmts())
	}
	if tab.LineTableFor("the_source.c") != lt {
		t.Error("LineTableFor should return the same table")
	}
	if files := tab.Files(); len(files) != 1 || files[0] != "the_source.c" {
		t.Errorf("Files = %v", files)
	}
}

func TestKindStrings(t *testing.T) {
	if SymFunc.String() != "func" || SymData.String() != "data" {
		t.Error("SymKind strings wrong")
	}
	for k, want := range map[EntityKind]string{
		EntNone: "none", EntFilter: "filter", EntController: "controller",
		EntModule: "module", EntRuntime: "runtime",
	} {
		if k.String() != want {
			t.Errorf("EntityKind %d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestPrettyWork(t *testing.T) {
	if PrettyWork("ipf") != "ipf::work" {
		t.Errorf("PrettyWork = %q", PrettyWork("ipf"))
	}
}

// TestAddStmtsMatchesResort checks the batched line table against the
// way it used to be built: append each statement and re-sort the whole
// table. Batches repeat (several actors share one source file), arrive
// in and out of line order, and sometimes put two functions on one
// line; the tables must be identical entry for entry.
func TestAddStmtsMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fns := []string{"work", "init", "helper"}
	for round := 0; round < 300; round++ {
		var ref []Stmt
		lt := &LineTable{}
		lines := 5 + rng.Intn(60)
		mixing := rng.Intn(3) == 0
		var batches [][]Stmt
		for b := 0; b < 1+rng.Intn(4); b++ {
			var batch []Stmt
			for i := 0; i < rng.Intn(40); i++ {
				line := 1 + rng.Intn(lines)
				fn := fns[line%2]
				if mixing && rng.Intn(8) == 0 {
					fn = fns[rng.Intn(len(fns))]
				}
				batch = append(batch, Stmt{Line: line, Func: fn})
			}
			if rng.Intn(2) == 0 {
				slices.SortStableFunc(batch, func(a, b Stmt) int { return a.Line - b.Line })
			}
			batches = append(batches, batch)
		}
		for rep := 0; rep < 1+rng.Intn(3); rep++ { // instances sharing sources
			for _, batch := range batches {
				for _, s := range batch {
					ref = append(ref, s)
					sort.Slice(ref, func(i, j int) bool { return ref[i].Line < ref[j].Line })
				}
				lt.AddStmts(batch)
			}
		}
		if !slices.Equal(lt.stmts, ref) {
			t.Fatalf("round %d: AddStmts built\n%v\nre-sorting built\n%v", round, lt.stmts, ref)
		}
	}
}
