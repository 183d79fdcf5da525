package filterc

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// This file defines the bytecode representation produced by the one-pass
// compiler in compile.go and executed by the stack VM in vm.go. The
// design goal is that the VM is observably identical to the tree-walking
// interpreter: same results, same *RuntimeError positions and messages,
// same OnStmt/OnEnter/OnExit sequences, same MaxSteps accounting — only
// faster. Identifiers are resolved to frame slots at compile time; the
// per-instruction pos table is the VM's DWARF-style line table.

type opcode uint8

const (
	opInvalid opcode = iota

	// --- statements / control flow ---
	opStmt      // a=line: fr.Line=a, steps++, budget check, OnStmt (slow loop)
	opJump      // a=target pc
	opJumpFalse // pop v; if !v.Truth() jump a
	opPop       // discard top of value stack (ExprStmt)
	opRet       // pop v; return v from the function
	opRetVoid   // return void
	opKill      // a=scope id: mark the scope's slots dead (lexical scope exit)
	opErr       // a=msg index: raise RuntimeError{pos, msgs[a]} (deferred static error)

	// --- constants and slots ---
	opConst     // a=const index: push consts[a]
	opZero      // a=type index: push Zero(types[a])
	opLoadSlot  // a=slot: push clone of slots[a]; error if slot not live
	opCheckSlot // a=slot: error "undefined variable" if slot not live
	opDeclSlot  // a=slot: pop v (already converted) → slots[a], mark live
	opStoreSlot // a=slot: pop v, convertForAssign to slot type, store, push stored
	opCompSlot  // a=slot, b=binop id: pop rv, compound-assign into slot, push stored
	opIncSlot   // a=slot, b=incMode: ++/-- on a live scalar slot
	opConv      // a=type index: pop v, convertForAssign(types[a], v), push

	// --- lvalue references (ref stack) ---
	opRefSlot   // a=slot: push &slots[a]; error if not live
	opRefData   // a=name index: push Env.DataRef
	opRefAttr   // a=name index: push Env.AttrRef
	opCheckArr  // require ref top to be an array (before the index evals)
	opRefIndex  // pop idx value; ref top=array elem ref (bounds checked)
	opRefMember // a=name index: ref top=struct field ref
	opLoadRef   // pop ref, push clone of *ref
	opStoreRef  // pop v, pop ref, convertForAssign to (*ref).Type, store, push
	opCompRef   // b=binop id: pop rv, pop ref, compound-assign, push stored
	opIncRef    // a=incMode: pop ref, ++/-- (pre or post)

	// --- pedf accessors ---
	opData    // a=name index: push clone of *Env.DataRef(name)
	opAttr    // a=name index: push clone of *Env.AttrRef(name)
	opIORead  // a=name index: pop idx, push Env.IORead(name, idx)
	opIOWrite // a=name index: pop v, pop idx, Env.IOWrite, push v

	// --- operators ---
	opScalarize // verify top of stack is a numeric scalar ("expected scalar")
	opNeg       // pop v, push -v (promoted)
	opBitNot    // pop v, push ^v (promoted)
	opNot       // pop v, push !v (Bool)
	opBinary    // a=binop id: pop r, pop l, push l op r (aggregate ==/!= allowed)
	opAndSC     // pop l; if !l.Truth() push Bool(0) and jump a
	opOrSC      // pop l; if l.Truth() push Bool(1) and jump a
	opTruthBool // pop v, push Bool(v.Truth())

	// --- calls ---
	opCallUser  // a=func index, b=nargs
	opBuiltin   // a=builtin id, b=nargs (min/max/abs/clamp)
	opIntrinsic // a=name index, b=nargs: Env.Intrinsic, "unknown function" if unhandled

	// --- switch ---
	opSwitchCond // a=temp slot: pop cond, require scalar, stash in slot
	opCaseEq     // a=temp slot, b=target: pop v; if scalar and v.I==slots[a].I jump b

	// --- fused superinstructions (emitted by the peephole pass; only
	// when every constituent instruction shared one source position, so
	// error and hook positions are unchanged) ---
	opBinSS // a=slotL, b=slotR, c=binop: push slots[a] op slots[b]
	opBinSC // a=slotL, b=constR, c=binop: push slots[a] op consts[b]
	opBinTS // a=slotR, c=binop: pop l, push l op slots[a]
	opBinTC // a=constR, c=binop: pop l, push l op consts[a]

	// Fused comparison + conditional branch (loop/if conditions). The
	// comparison id lives in c&31, the branch target in c>>5; no operand
	// ever touches the value stack.
	opJFCmpSS // a=slotL, b=slotR: if !(slots[a] cmp slots[b]) jump c>>5
	opJFCmpSC // a=slotL, b=constR: if !(slots[a] cmp consts[b]) jump c>>5
)

// incMode values for opIncSlot/opIncRef (a or b operand).
const (
	incPre  = 0 // ++x → push new value
	incPost = 1 // x++ → push old value
	decPre  = 2
	decPost = 3
)

// binop ids for opBinary/opCompSlot/opCompRef. applyBinary in eval.go
// delegates to the same applyBinaryID implementation, so the walker and
// the VM share one arithmetic kernel by construction.
const (
	bAdd = iota
	bSub
	bMul
	bDiv
	bMod
	bAnd
	bOr
	bXor
	bShl
	bShr
	bEq
	bNe
	bLt
	bLe
	bGt
	bGe
	bBad // unknown operator (kept for error-message equivalence)
)

var binOpNames = [...]string{
	bAdd: "+", bSub: "-", bMul: "*", bDiv: "/", bMod: "%",
	bAnd: "&", bOr: "|", bXor: "^", bShl: "<<", bShr: ">>",
	bEq: "==", bNe: "!=", bLt: "<", bLe: "<=", bGt: ">", bGe: ">=",
	bBad: "?",
}

func binOpID(op string) int {
	switch op {
	case "+":
		return bAdd
	case "-":
		return bSub
	case "*":
		return bMul
	case "/":
		return bDiv
	case "%":
		return bMod
	case "&":
		return bAnd
	case "|":
		return bOr
	case "^":
		return bXor
	case "<<":
		return bShl
	case ">>":
		return bShr
	case "==":
		return bEq
	case "!=":
		return bNe
	case "<":
		return bLt
	case "<=":
		return bLe
	case ">":
		return bGt
	case ">=":
		return bGe
	default:
		return bBad
	}
}

// builtin ids for opBuiltin.
const (
	builtinMin = iota
	builtinMax
	builtinAbs
	builtinClamp
)

// ins is one VM instruction. Operands are indices (slots, constants,
// names, jump targets) — never pointers — so code objects are immutable
// and safely shared across interpreter instances. c carries the binop id
// of fused instructions and the "value discarded" flag (c=1) that the
// peephole pass sets on opStoreSlot/opIncSlot followed by opPop.
type ins struct {
	op      opcode
	a, b, c int32
}

// funcCode is the compiled form of one function: the instruction stream,
// the parallel position table (the line table a debugger needs), and the
// slot→name map that keeps frame inspection working on the VM.
type funcCode struct {
	fn   *FuncDecl
	code []ins
	pos  []Pos // parallel to code: source position of each instruction

	nslots     int
	slotNames  []string  // slot→name map ("" for compiler temporaries)
	scopeSlots [][]int32 // per lexical scope (by open order), the slots it owns

	consts []Value
	types  []*Type
	names  []string // identifier pool: fields, pedf names, intrinsics, messages
}

// Code is a compiled program: one funcCode per function, owned by its
// Program so every firing of every filter running it reuses it.
type Code struct {
	prog  *Program
	funcs map[string]*funcCode
	flist []*funcCode // opCallUser operand a indexes this
}

// FuncNames lists the compiled functions (source order).
func (c *Code) FuncNames() []string { return c.prog.Order }

// Disasm renders a readable listing of a compiled function, for tests
// and debugging of the compiler itself.
func (c *Code) Disasm(fn string) string {
	fc := c.funcs[fn]
	if fc == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "func %s: %d slots\n", fn, fc.nslots)
	for i, name := range fc.slotNames {
		if name == "" {
			name = "(tmp)"
		}
		fmt.Fprintf(&b, "  slot %d = %s\n", i, name)
	}
	for pc, i := range fc.code {
		fmt.Fprintf(&b, "  %4d  %-12s a=%-5d b=%-5d ; line %d\n",
			pc, opName(i.op), i.a, i.b, fc.pos[pc].Line)
	}
	return b.String()
}

func opName(op opcode) string {
	names := map[opcode]string{
		opStmt: "stmt", opJump: "jump", opJumpFalse: "jumpfalse", opPop: "pop",
		opRet: "ret", opRetVoid: "retvoid", opKill: "kill", opErr: "err",
		opConst: "const", opZero: "zero", opLoadSlot: "loadslot",
		opCheckSlot: "checkslot", opDeclSlot: "declslot", opStoreSlot: "storeslot",
		opCompSlot: "compslot", opIncSlot: "incslot", opConv: "conv",
		opRefSlot: "refslot", opRefData: "refdata", opRefAttr: "refattr",
		opCheckArr: "checkarr", opRefIndex: "refindex", opRefMember: "refmember",
		opLoadRef:  "loadref",
		opStoreRef: "storeref", opCompRef: "compref", opIncRef: "incref",
		opData: "data", opAttr: "attr", opIORead: "ioread", opIOWrite: "iowrite",
		opScalarize: "scalarize", opNeg: "neg", opBitNot: "bitnot", opNot: "not",
		opBinary: "binary", opAndSC: "andsc", opOrSC: "orsc", opTruthBool: "truthbool",
		opCallUser: "calluser", opBuiltin: "builtin", opIntrinsic: "intrinsic",
		opSwitchCond: "switchcond", opCaseEq: "caseeq",
		opBinSS: "bin.ss", opBinSC: "bin.sc", opBinTS: "bin.ts", opBinTC: "bin.tc",
		opJFCmpSS: "jfcmp.ss", opJFCmpSC: "jfcmp.sc",
	}
	if s, ok := names[op]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", op)
}

// ---- compiled code ----

var (
	compileTotal atomic.Int64
	cacheHits    atomic.Int64
)

// CompileTotal reports how many programs have been compiled to bytecode,
// for the filterc_compile_total observability counter.
func CompileTotal() int64 { return compileTotal.Load() }

// CacheHits reports how many compiled-code lookups found their program
// already compiled, for the filterc_cache_hits_total observability
// counter.
func CacheHits() int64 { return cacheHits.Load() }

// compiled returns the compiled form of p, compiling on first use.
// Programs are immutable after parsing, so the code is built once per
// program and lives exactly as long as it does.
func (p *Program) compiled() *Code {
	hit := true
	p.codeOnce.Do(func() {
		p.code = Compile(p)
		hit = false
	})
	if hit {
		cacheHits.Add(1)
	}
	return p.code
}

// ---- engine selection ----

// Engine selects the execution engine of an Interp.
type Engine int

const (
	// EngineDefault follows the build tag (slowinterp) and the
	// DFDBG_FILTERC_INTERP environment variable ("walker" or "vm").
	EngineDefault Engine = iota
	// EngineVM forces the bytecode VM.
	EngineVM
	// EngineWalker forces the tree-walking interpreter (the
	// differential-testing oracle).
	EngineWalker
)

var defaultEngineVM = func() bool {
	switch os.Getenv("DFDBG_FILTERC_INTERP") {
	case "walker":
		return false
	case "vm":
		return true
	}
	return buildDefaultVM
}()

func (in *Interp) useVM() bool {
	switch in.Engine {
	case EngineVM:
		return true
	case EngineWalker:
		return false
	}
	return defaultEngineVM
}
