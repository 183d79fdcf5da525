package filterc

import "sync"

// AST node definitions. Every node carries the source position of its
// first token; statement positions feed the debug line tables.

// Program is a parsed filterc source file. It is immutable once parsed,
// which is what lets Intern share one Program, and its compiled code,
// between every actor and world of a process.
type Program struct {
	File    string
	Structs map[string]*Type
	Funcs   map[string]*FuncDecl
	Order   []string // function names in source order

	codeOnce sync.Once
	code     *Code // built on first execution, see compiled

	stmtsOnce sync.Once
	stmts     []StmtLine // built on first use, see StmtLines
}

// Func returns a function by name, or nil.
func (p *Program) Func(name string) *FuncDecl { return p.Funcs[name] }

// Param is one function parameter.
type Param struct {
	Name string
	Type *Type
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Name   string
	Params []Param
	Ret    *Type
	Body   *BlockStmt
	Pos    Pos
}

// Stmt is any statement node.
type Stmt interface{ stmtPos() Pos }

// BlockStmt is `{ ... }`.
type BlockStmt struct {
	P     Pos
	Stmts []Stmt
}

// DeclStmt declares (and optionally initializes) a local variable.
type DeclStmt struct {
	P    Pos
	Name string
	Type *Type
	Init Expr // nil for zero initialization
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	P Pos
	X Expr
}

// IfStmt is `if (c) s [else s]`.
type IfStmt struct {
	P    Pos
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is `while (c) s`.
type WhileStmt struct {
	P    Pos
	Cond Expr
	Body Stmt
}

// ForStmt is `for (init; cond; post) s`; any clause may be nil.
type ForStmt struct {
	P    Pos
	Init Stmt
	Cond Expr
	Post Stmt
	Body Stmt
}

// SwitchCase is one `case v1: ...` or `default: ...` arm.
type SwitchCase struct {
	P     Pos
	Vals  []Expr // nil for default
	Stmts []Stmt
}

// SwitchStmt is a C-style switch with fallthrough (a `break` leaves the
// switch).
type SwitchStmt struct {
	P     Pos
	Cond  Expr
	Cases []SwitchCase
}

// ReturnStmt is `return [e];`.
type ReturnStmt struct {
	P Pos
	X Expr // may be nil
}

// BreakStmt is `break;`.
type BreakStmt struct{ P Pos }

// ContinueStmt is `continue;`.
type ContinueStmt struct{ P Pos }

func (s *BlockStmt) stmtPos() Pos    { return s.P }
func (s *DeclStmt) stmtPos() Pos     { return s.P }
func (s *ExprStmt) stmtPos() Pos     { return s.P }
func (s *IfStmt) stmtPos() Pos       { return s.P }
func (s *WhileStmt) stmtPos() Pos    { return s.P }
func (s *ForStmt) stmtPos() Pos      { return s.P }
func (s *SwitchStmt) stmtPos() Pos   { return s.P }
func (s *ReturnStmt) stmtPos() Pos   { return s.P }
func (s *BreakStmt) stmtPos() Pos    { return s.P }
func (s *ContinueStmt) stmtPos() Pos { return s.P }

// Expr is any expression node.
type Expr interface{ exprPos() Pos }

// Ident is a variable reference.
type Ident struct {
	P    Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	P Pos
	V int64
}

// StrLit is a string literal (intrinsic arguments only).
type StrLit struct {
	P Pos
	S string
}

// Unary is a prefix operator: - ! ~ ++ --.
type Unary struct {
	P  Pos
	Op string
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	P  Pos
	Op string
	X  Expr
}

// Binary is a binary operator expression.
type Binary struct {
	P    Pos
	Op   string
	L, R Expr
}

// Assign is `lhs op rhs` where op is = or a compound assignment.
type Assign struct {
	P    Pos
	Op   string
	L, R Expr
}

// Index is `x[i]`.
type Index struct {
	P Pos
	X Expr
	I Expr
}

// Member is `x.name`.
type Member struct {
	P    Pos
	X    Expr
	Name string
}

// Call is `name(args...)` — user function or intrinsic.
type Call struct {
	P    Pos
	Name string
	Args []Expr
}

// Cond is the ternary `c ? t : f`.
type Cond struct {
	P       Pos
	C, T, F Expr
}

// PedfSpace names the accessor namespace of a PedfRef.
type PedfSpace int

const (
	// PedfIO is pedf.io.NAME — a data interface.
	PedfIO PedfSpace = iota
	// PedfData is pedf.data.NAME — private filter data.
	PedfData
	// PedfAttr is pedf.attribute.NAME — a configuration attribute.
	PedfAttr
)

func (s PedfSpace) String() string {
	switch s {
	case PedfIO:
		return "io"
	case PedfData:
		return "data"
	case PedfAttr:
		return "attribute"
	default:
		return "?"
	}
}

// PedfRef is a dataflow accessor `pedf.<space>.<name>`. An IO reference
// is only meaningful when indexed (pedf.io.in[n]); data and attribute
// references act as ordinary lvalues.
type PedfRef struct {
	P     Pos
	Space PedfSpace
	Name  string
}

func (e *Ident) exprPos() Pos   { return e.P }
func (e *IntLit) exprPos() Pos  { return e.P }
func (e *StrLit) exprPos() Pos  { return e.P }
func (e *Unary) exprPos() Pos   { return e.P }
func (e *Postfix) exprPos() Pos { return e.P }
func (e *Binary) exprPos() Pos  { return e.P }
func (e *Assign) exprPos() Pos  { return e.P }
func (e *Index) exprPos() Pos   { return e.P }
func (e *Member) exprPos() Pos  { return e.P }
func (e *Call) exprPos() Pos    { return e.P }
func (e *Cond) exprPos() Pos    { return e.P }
func (e *PedfRef) exprPos() Pos { return e.P }

// StmtLine describes one executable statement for the debug line table.
type StmtLine struct {
	Line int
	Func string
}

// StmtLines lists every executable statement of the program in source
// order, for registration into a dbginfo.LineTable. The list is built
// once per program (an interned program serves every world that
// instantiates it) and shared: callers must not modify it.
func (p *Program) StmtLines() []StmtLine {
	p.stmtsOnce.Do(func() {
		for _, name := range p.Order {
			collectStmtLines(p.Funcs[name].Body, name, &p.stmts)
		}
	})
	return p.stmts
}

func collectStmtLines(s Stmt, fn string, out *[]StmtLine) {
	switch s := s.(type) {
	case *BlockStmt:
		for _, sub := range s.Stmts {
			collectStmtLines(sub, fn, out)
		}
	case *IfStmt:
		*out = append(*out, StmtLine{Line: s.P.Line, Func: fn})
		collectStmtLines(s.Then, fn, out)
		if s.Else != nil {
			collectStmtLines(s.Else, fn, out)
		}
	case *WhileStmt:
		*out = append(*out, StmtLine{Line: s.P.Line, Func: fn})
		collectStmtLines(s.Body, fn, out)
	case *ForStmt:
		*out = append(*out, StmtLine{Line: s.P.Line, Func: fn})
		collectStmtLines(s.Body, fn, out)
	case *SwitchStmt:
		*out = append(*out, StmtLine{Line: s.P.Line, Func: fn})
		for _, cs := range s.Cases {
			for _, sub := range cs.Stmts {
				collectStmtLines(sub, fn, out)
			}
		}
	case nil:
	default:
		*out = append(*out, StmtLine{Line: s.stmtPos().Line, Func: fn})
	}
}
