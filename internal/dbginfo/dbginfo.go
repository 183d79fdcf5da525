// Package dbginfo models the standard debug information (DWARF in the
// paper) that the dataflow debugger relies on: a symbol table with the
// platform tool-chain's mangled linker names, source file line tables,
// and the mangling/demangling rules for PEDF entities.
//
// The paper's qualitative analysis (Section VI-F) points out that, with a
// plain debugger, developers must hunt for symbols such as
// `IpfFilter_work_function` (filter Ipf's WORK method) or
// `_component_PredModule_anon_0_work` (controller of module pred). This
// package reproduces those exact schemes so the low-level debugger shows
// the same mangled world, and the dataflow layer the demangled one.
package dbginfo

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// SymKind classifies a symbol.
type SymKind int

const (
	// SymFunc is a function (work methods, runtime API entry points).
	SymFunc SymKind = iota
	// SymData is a data object (filter private data, attributes).
	SymData
)

func (k SymKind) String() string {
	switch k {
	case SymFunc:
		return "func"
	case SymData:
		return "data"
	default:
		return fmt.Sprintf("SymKind(%d)", int(k))
	}
}

// EntityKind classifies the PEDF entity a symbol belongs to.
type EntityKind int

const (
	// EntNone marks symbols with no dataflow meaning (runtime plumbing).
	EntNone EntityKind = iota
	// EntFilter marks a filter's symbol.
	EntFilter
	// EntController marks a module controller's symbol.
	EntController
	// EntModule marks a module-level symbol.
	EntModule
	// EntRuntime marks a PEDF framework API function.
	EntRuntime
)

func (k EntityKind) String() string {
	switch k {
	case EntNone:
		return "none"
	case EntFilter:
		return "filter"
	case EntController:
		return "controller"
	case EntModule:
		return "module"
	case EntRuntime:
		return "runtime"
	default:
		return fmt.Sprintf("EntityKind(%d)", int(k))
	}
}

// Symbol is one entry of the debug symbol table.
type Symbol struct {
	Name   string     // mangled linker name, unique in the table
	Pretty string     // demangled, human-oriented name (may equal Name)
	Kind   SymKind    // function or data
	Entity EntityKind // dataflow classification
	Owner  string     // owning entity name (filter/module), "" for runtime
	File   string     // defining source file
	Line   int        // first line of the definition
}

func (s *Symbol) String() string {
	return fmt.Sprintf("%s (%s %s) at %s:%d", s.Name, s.Entity, s.Kind, s.File, s.Line)
}

// Table is a symbol table plus per-file line tables.
type Table struct {
	byName  map[string]*Symbol
	ordered []*Symbol
	lines   map[string]*LineTable // file → line table
}

// NewTable returns an empty debug-information table.
func NewTable() *Table {
	return &Table{
		byName: make(map[string]*Symbol),
		lines:  make(map[string]*LineTable),
	}
}

// Define adds a symbol; redefining a name is an error (linker semantics).
func (t *Table) Define(sym Symbol) (*Symbol, error) {
	if sym.Name == "" {
		return nil, fmt.Errorf("dbginfo: empty symbol name")
	}
	if _, dup := t.byName[sym.Name]; dup {
		return nil, fmt.Errorf("dbginfo: duplicate symbol %q", sym.Name)
	}
	s := &sym
	if s.Pretty == "" {
		s.Pretty = s.Name
	}
	t.byName[s.Name] = s
	t.ordered = append(t.ordered, s)
	return s, nil
}

// MustDefine is Define for table-construction code where a duplicate is a
// programming error.
func (t *Table) MustDefine(sym Symbol) *Symbol {
	s, err := t.Define(sym)
	if err != nil {
		panic(err)
	}
	return s
}

// Lookup finds a symbol by exact mangled name.
func (t *Table) Lookup(name string) *Symbol {
	return t.byName[name]
}

// LookupPretty finds the first symbol whose demangled name matches.
func (t *Table) LookupPretty(pretty string) *Symbol {
	for _, s := range t.ordered {
		if s.Pretty == pretty {
			return s
		}
	}
	return nil
}

// Symbols returns all symbols in definition order.
func (t *Table) Symbols() []*Symbol {
	out := make([]*Symbol, len(t.ordered))
	copy(out, t.ordered)
	return out
}

// Complete returns the sorted mangled names beginning with prefix —
// feeding the debugger CLI autocompletion.
func (t *Table) Complete(prefix string) []string {
	var out []string
	for name := range t.byName {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// OwnedBy returns all symbols belonging to the named entity.
func (t *Table) OwnedBy(owner string) []*Symbol {
	var out []*Symbol
	for _, s := range t.ordered {
		if s.Owner == owner {
			out = append(out, s)
		}
	}
	return out
}

// LineTableFor returns (creating on demand) the line table for a file.
func (t *Table) LineTableFor(file string) *LineTable {
	lt := t.lines[file]
	if lt == nil {
		lt = &LineTable{File: file}
		t.lines[file] = lt
	}
	return lt
}

// Files returns the sorted list of source files with line tables.
func (t *Table) Files() []string {
	out := make([]string, 0, len(t.lines))
	for f := range t.lines {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// LineTable records which lines of a source file hold statements, and the
// function covering each line — the subset of DWARF .debug_line needed
// for line breakpoints and stepping.
type LineTable struct {
	File  string
	stmts []Stmt // sorted by line
	// mixed is set once some line holds statements of two functions;
	// see AddStmts.
	mixed bool
}

// Stmt is one executable statement: its line and the (mangled)
// function covering it.
type Stmt struct {
	Line int
	Func string
}

// AddStmt records that `line` holds an executable statement inside fn.
func (lt *LineTable) AddStmt(line int, fn string) {
	lt.AddStmts([]Stmt{{Line: line, Func: fn}})
}

// AddStmts records a batch of statements. The table is the one AddStmt
// on each statement in turn used to build by appending and re-sorting:
// the same lines, and among equal lines the same functions in the same
// order. While no line holds two functions, equal lines are equal
// entries, so one stable merge of the batch gives that table in linear
// time. Once some line holds two functions, the order among them is
// whatever the re-sorting left, so the table is built the old way.
func (lt *LineTable) AddStmts(batch []Stmt) {
	byLine := func(a, b Stmt) int { return a.Line - b.Line }
	sorted := batch
	if !slices.IsSortedFunc(batch, byLine) {
		sorted = slices.Clone(batch)
		slices.SortStableFunc(sorted, byLine)
	}
	if !lt.mixed && !lt.mixes(sorted) {
		lt.merge(sorted)
		return
	}
	lt.mixed = true
	for _, s := range batch {
		lt.stmts = append(lt.stmts, s)
		sort.Slice(lt.stmts, func(i, j int) bool { return lt.stmts[i].Line < lt.stmts[j].Line })
	}
}

// mixes reports whether adding the line-sorted batch would put two
// functions on one line.
func (lt *LineTable) mixes(sorted []Stmt) bool {
	i, j := 0, 0
	var prev *Stmt
	for i < len(lt.stmts) || j < len(sorted) {
		var s *Stmt
		if j == len(sorted) || (i < len(lt.stmts) && lt.stmts[i].Line <= sorted[j].Line) {
			s, i = &lt.stmts[i], i+1
		} else {
			s, j = &sorted[j], j+1
		}
		if prev != nil && prev.Line == s.Line && prev.Func != s.Func {
			return true
		}
		prev = s
	}
	return false
}

// merge adds the line-sorted batch after the table's equal lines,
// merging from the back in place.
func (lt *LineTable) merge(sorted []Stmt) {
	i, j := len(lt.stmts)-1, len(sorted)-1
	lt.stmts = append(lt.stmts, sorted...)
	for k := len(lt.stmts) - 1; j >= 0; k-- {
		if i >= 0 && lt.stmts[i].Line > sorted[j].Line {
			lt.stmts[k], i = lt.stmts[i], i-1
		} else {
			lt.stmts[k], j = sorted[j], j-1
		}
	}
}

// NearestStmt returns the first statement line >= line, matching GDB's
// "break file:line slides forward to the next statement" behaviour. The
// boolean reports whether any statement exists at or after line.
func (lt *LineTable) NearestStmt(line int) (stmtLine int, fn string, ok bool) {
	i := sort.Search(len(lt.stmts), func(i int) bool { return lt.stmts[i].Line >= line })
	if i == len(lt.stmts) {
		return 0, "", false
	}
	return lt.stmts[i].Line, lt.stmts[i].Func, true
}

// HasStmt reports whether the exact line holds a statement.
func (lt *LineTable) HasStmt(line int) bool {
	l, _, ok := lt.NearestStmt(line)
	return ok && l == line
}

// FuncAt returns the function covering the statement at line ("" if none).
func (lt *LineTable) FuncAt(line int) string {
	for _, e := range lt.stmts {
		if e.Line == line {
			return e.Func
		}
	}
	return ""
}

// Stmts returns all statement lines in ascending order.
func (lt *LineTable) Stmts() []int {
	out := make([]int, len(lt.stmts))
	for i, e := range lt.stmts {
		out[i] = e.Line
	}
	return out
}
