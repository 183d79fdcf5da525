package filterc

import (
	"fmt"
	"sync"
)

// Parse compiles filterc source into a Program.
func Parse(file, src string) (*Program, error) {
	toks, err := newLexer(file, src).lexAll()
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks: toks,
		prog: &Program{
			File:    file,
			Structs: make(map[string]*Type),
			Funcs:   make(map[string]*FuncDecl),
		},
	}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.prog, nil
}

// MustParse is Parse for known-good embedded sources.
func MustParse(file, src string) *Program {
	p, err := Parse(file, src)
	if err != nil {
		panic(err)
	}
	return p
}

// internCap bounds the intern table. A process loads few distinct filter
// sources (the H.264 decoder has 9); past the bound an arbitrary entry
// is evicted, and its Program lives on only as long as its actors do.
const internCap = 256

type internKey struct{ file, src string }

var interned = struct {
	sync.Mutex
	progs map[internKey]*Program
}{progs: make(map[internKey]*Program)}

// Intern is Parse through a process-wide table keyed on (file, src):
// every actor instantiated from the same source, in every world of the
// process, shares one immutable Program and therefore one compiled
// Code. Parse errors are returned and never cached.
func Intern(file, src string) (*Program, error) {
	k := internKey{file, src}
	interned.Lock()
	defer interned.Unlock()
	if p := interned.progs[k]; p != nil {
		return p, nil
	}
	p, err := Parse(file, src)
	if err != nil {
		return nil, err
	}
	if len(interned.progs) >= internCap {
		for old := range interned.progs {
			delete(interned.progs, old)
			break
		}
	}
	interned.progs[k] = p
	return p, nil
}

type parser struct {
	toks []token
	i    int
	prog *Program
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return &Error{Pos: p.cur().pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) at(text string) bool {
	return p.cur().kind == tPunct && p.cur().text == text
}

func (p *parser) atIdent(name string) bool {
	return p.cur().kind == tIdent && p.cur().text == name
}

func (p *parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %s", text, p.cur())
	}
	return nil
}

func (p *parser) expectIdent() (token, error) {
	if p.cur().kind != tIdent {
		return token{}, p.errf("expected identifier, found %s", p.cur())
	}
	return p.advance(), nil
}

// parseFile handles top-level struct and function declarations.
func (p *parser) parseFile() error {
	for p.cur().kind != tEOF {
		if p.atIdent("struct") {
			if err := p.parseStructDecl(); err != nil {
				return err
			}
			continue
		}
		if err := p.parseFuncDecl(); err != nil {
			return err
		}
	}
	return nil
}

// parseStructDecl handles `struct Name { type field; ... };`.
func (p *parser) parseStructDecl() error {
	p.advance() // struct
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.prog.Structs[nameTok.text]; dup {
		return p.errf("struct %q redefined", nameTok.text)
	}
	if err := p.expect("{"); err != nil {
		return err
	}
	st := &Type{Kind: KStruct, Name: nameTok.text}
	for !p.accept("}") {
		ft, err := p.parseTypeName()
		if err != nil {
			return err
		}
		fname, err := p.expectIdent()
		if err != nil {
			return err
		}
		if p.accept("[") {
			if p.cur().kind != tNumber {
				return p.errf("array length must be a literal")
			}
			n := p.advance().num
			if err := p.expect("]"); err != nil {
				return err
			}
			ft = ArrayOf(ft, int(n))
		}
		if st.FieldIndex(fname.text) >= 0 {
			return p.errf("duplicate field %q in struct %s", fname.text, st.Name)
		}
		st.Fields = append(st.Fields, Field{Name: fname.text, Type: ft})
		if err := p.expect(";"); err != nil {
			return err
		}
	}
	p.accept(";") // trailing semicolon is optional
	p.prog.Structs[nameTok.text] = st
	return nil
}

// parseTypeName resolves a base type or previously declared struct name.
func (p *parser) parseTypeName() (*Type, error) {
	t, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if b, ok := BaseTypeByName(t.text); ok {
		return Scalar(b), nil
	}
	if st, ok := p.prog.Structs[t.text]; ok {
		return st, nil
	}
	return nil, &Error{Pos: t.pos, Msg: fmt.Sprintf("unknown type %q", t.text)}
}

// isTypeStart reports whether the current token begins a type name.
func (p *parser) isTypeStart() bool {
	if p.cur().kind != tIdent {
		return false
	}
	if _, ok := BaseTypeByName(p.cur().text); ok {
		return true
	}
	_, ok := p.prog.Structs[p.cur().text]
	return ok
}

// parseFuncDecl handles `type name(params) { ... }`.
func (p *parser) parseFuncDecl() error {
	pos := p.cur().pos
	ret, err := p.parseTypeName()
	if err != nil {
		return err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	if _, dup := p.prog.Funcs[nameTok.text]; dup {
		return p.errf("function %q redefined", nameTok.text)
	}
	if err := p.expect("("); err != nil {
		return err
	}
	var params []Param
	for !p.accept(")") {
		if len(params) > 0 {
			if err := p.expect(","); err != nil {
				return err
			}
		}
		if p.atIdent("void") && len(params) == 0 && p.peek().kind == tPunct && p.peek().text == ")" {
			p.advance() // f(void)
			continue
		}
		pt, err := p.parseTypeName()
		if err != nil {
			return err
		}
		pn, err := p.expectIdent()
		if err != nil {
			return err
		}
		params = append(params, Param{Name: pn.text, Type: pt})
	}
	body, err := p.parseBlock()
	if err != nil {
		return err
	}
	fn := &FuncDecl{Name: nameTok.text, Params: params, Ret: ret, Body: body, Pos: pos}
	p.prog.Funcs[fn.Name] = fn
	p.prog.Order = append(p.prog.Order, fn.Name)
	return nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	pos := p.cur().pos
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{P: pos}
	for !p.accept("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.cur().pos
	switch {
	case p.at("{"):
		return p.parseBlock()
	case p.at(";"):
		p.advance()
		return &BlockStmt{P: pos}, nil // empty statement
	case p.atIdent("if"):
		return p.parseIf()
	case p.atIdent("while"):
		return p.parseWhile()
	case p.atIdent("for"):
		return p.parseFor()
	case p.atIdent("switch"):
		return p.parseSwitch()
	case p.atIdent("return"):
		p.advance()
		var x Expr
		if !p.at(";") {
			var err error
			if x, err = p.parseExpr(); err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{P: pos, X: x}, nil
	case p.atIdent("break"):
		p.advance()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{P: pos}, nil
	case p.atIdent("continue"):
		p.advance()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{P: pos}, nil
	case p.isTypeStart() && p.peek().kind == tIdent:
		return p.parseDecl()
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ExprStmt{P: pos, X: x}, nil
	}
}

func (p *parser) parseDecl() (Stmt, error) {
	pos := p.cur().pos
	typ, err := p.parseTypeName()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if p.accept("[") {
		if p.cur().kind != tNumber {
			return nil, p.errf("array length must be a literal")
		}
		n := p.advance().num
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		typ = ArrayOf(typ, int(n))
	}
	var init Expr
	if p.accept("=") {
		if init, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &DeclStmt{P: pos, Name: name.text, Type: typ, Init: init}, nil
}

func (p *parser) parseIf() (Stmt, error) {
	pos := p.advance().pos // if
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	var els Stmt
	if p.atIdent("else") {
		p.advance()
		if els, err = p.parseStmt(); err != nil {
			return nil, err
		}
	}
	return &IfStmt{P: pos, Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseWhile() (Stmt, error) {
	pos := p.advance().pos // while
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{P: pos, Cond: cond, Body: body}, nil
}

func (p *parser) parseFor() (Stmt, error) {
	pos := p.advance().pos // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var init Stmt
	var err error
	if !p.at(";") {
		if p.isTypeStart() && p.peek().kind == tIdent {
			if init, err = p.parseDecl(); err != nil {
				return nil, err
			}
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			init = &ExprStmt{P: x.exprPos(), X: x}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.advance()
	}
	var cond Expr
	if !p.at(";") {
		if cond, err = p.parseExpr(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	var post Stmt
	if !p.at(")") {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		post = &ExprStmt{P: x.exprPos(), X: x}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	return &ForStmt{P: pos, Init: init, Cond: cond, Post: post, Body: body}, nil
}

// parseSwitch handles a C-style switch with fallthrough semantics.
func (p *parser) parseSwitch() (Stmt, error) {
	pos := p.advance().pos // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{P: pos, Cond: cond}
	sawDefault := false
	for !p.accept("}") {
		if p.cur().kind == tEOF {
			return nil, p.errf("unexpected EOF in switch")
		}
		cs := SwitchCase{P: p.cur().pos}
		switch {
		case p.atIdent("case"):
			p.advance()
			for {
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				cs.Vals = append(cs.Vals, v)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
		case p.atIdent("default"):
			if sawDefault {
				return nil, p.errf("duplicate default case")
			}
			sawDefault = true
			p.advance()
			if err := p.expect(":"); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("expected case or default, found %s", p.cur())
		}
		for !p.atIdent("case") && !p.atIdent("default") && !p.at("}") {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			cs.Stmts = append(cs.Stmts, s)
		}
		sw.Cases = append(sw.Cases, cs)
	}
	return sw, nil
}

// Expression parsing: assignment (right-assoc) → ternary → binary
// precedence climbing → unary → postfix → primary.

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseExpr() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tPunct && assignOps[p.cur().text] {
		op := p.advance().text
		if !isLvalue(lhs) {
			return nil, p.errf("left side of %s is not assignable", op)
		}
		rhs, err := p.parseExpr() // right associative
		if err != nil {
			return nil, err
		}
		return &Assign{P: lhs.exprPos(), Op: op, L: lhs, R: rhs}, nil
	}
	return lhs, nil
}

func isLvalue(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return true
	case *Index:
		return true
	case *Member:
		return true
	case *PedfRef:
		return e.Space != PedfIO // bare io refs need an index
	default:
		return false
	}
}

func (p *parser) parseTernary() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.accept("?") {
		return c, nil
	}
	t, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(":"); err != nil {
		return nil, err
	}
	f, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &Cond{P: c.exprPos(), C: c, T: t, F: f}, nil
}

// binary operator precedence, higher binds tighter.
var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.cur().kind != tPunct {
			return lhs, nil
		}
		prec, ok := binPrec[p.cur().text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.advance().text
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{P: lhs.exprPos(), Op: op, L: lhs, R: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	pos := p.cur().pos
	if p.cur().kind == tPunct {
		switch p.cur().text {
		case "-", "!", "~", "+":
			op := p.advance().text
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if op == "+" {
				return x, nil
			}
			return &Unary{P: pos, Op: op, X: x}, nil
		case "++", "--":
			op := p.advance().text
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			if !isLvalue(x) {
				return nil, p.errf("operand of prefix %s is not assignable", op)
			}
			return &Unary{P: pos, Op: op, X: x}, nil
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at("["):
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{P: x.exprPos(), X: x, I: idx}
		case p.at("."):
			p.advance()
			name, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			x = &Member{P: x.exprPos(), X: x, Name: name.text}
		case p.at("++"), p.at("--"):
			op := p.advance().text
			if !isLvalue(x) {
				return nil, p.errf("operand of postfix %s is not assignable", op)
			}
			x = &Postfix{P: x.exprPos(), Op: op, X: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.cur().pos
	switch {
	case p.cur().kind == tNumber:
		return &IntLit{P: pos, V: p.advance().num}, nil
	case p.cur().kind == tString:
		return &StrLit{P: pos, S: p.advance().text}, nil
	case p.accept("("):
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return x, nil
	case p.atIdent("pedf"):
		return p.parsePedfRef()
	case p.cur().kind == tIdent:
		name := p.advance().text
		if p.at("(") {
			p.advance()
			var args []Expr
			for !p.accept(")") {
				if len(args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
			return &Call{P: pos, Name: name, Args: args}, nil
		}
		return &Ident{P: pos, Name: name}, nil
	default:
		return nil, p.errf("unexpected token %s in expression", p.cur())
	}
}

// parsePedfRef handles `pedf.io.NAME`, `pedf.data.NAME`, `pedf.attribute.NAME`.
func (p *parser) parsePedfRef() (Expr, error) {
	pos := p.advance().pos // pedf
	if err := p.expect("."); err != nil {
		return nil, err
	}
	spaceTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	var space PedfSpace
	switch spaceTok.text {
	case "io":
		space = PedfIO
	case "data":
		space = PedfData
	case "attribute":
		space = PedfAttr
	default:
		return nil, p.errf("unknown pedf namespace %q (want io, data or attribute)", spaceTok.text)
	}
	if err := p.expect("."); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	return &PedfRef{P: pos, Space: space, Name: name.text}, nil
}
