package filterc

import (
	"fmt"
	"sync/atomic"
)

// This file defines the bytecode representation produced by the one-pass
// compiler in compile.go and executed by the stack VM in vm.go. The
// design goal is that the VM is observably identical to the tree-walking
// interpreter: same results, same *RuntimeError positions and messages,
// same OnStmt/OnEnter/OnExit sequences, same MaxSteps accounting — only
// faster. Identifiers are resolved to frame slots at compile time; the
// per-instruction pos table is the VM's DWARF-style line table.
//
// The VM has two operand stacks. The value stack holds Values: the
// aggregates, strings and the scalars whose type is only known at run
// time (pedf accessors, io reads, user calls). The int stack holds the
// int64 payloads of statically typed scalars; the compiler knows each
// one's base and encodes it in the instructions, so the int stack and
// the typed slots (Frame.ints) carry no pointers. Instructions on a
// typed scalar start with opI.

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
	opZero      // a=type index: push Zero(types[a]) (zeroes in place before opDeclSlot)
	opLoadSlot  // a=slot: push slots[a] (cloned unless c&loadBorrow); error if slot not live
	opCheckSlot // a=slot: error "undefined variable" if slot not live
	opDeclSlot  // a=slot: pop v (already converted), copy into slots[a], mark live
	opStoreSlot // a=slot: pop v, convert to the slot's type, copy in, push stored
	opConv      // a=type index: pop v, convert to types[a] without copying, push

	// --- lvalue references (ref stack) ---
	opRefSlot   // a=slot: push &slots[a]; error if not live
	opRefData   // a=name index: push Env.DataRef
	opRefAttr   // a=name index: push Env.AttrRef
	opCheckArr  // require ref top to be an array (before the index evals)
	opRefIndex  // pop idx (c=intIndex: int stack); ref top=array elem ref (bounds checked)
	opRefMember // a=name index: ref top=struct field ref
	opLoadRef   // pop ref, push *ref (cloned unless c&loadBorrow)
	opStoreRef  // pop v, pop ref, convert to (*ref).Type, copy in, push
	opCompRef   // b=binop id: pop rv, pop ref, compound-assign, push stored
	opIncRef    // a=incMode: pop ref, ++/-- (pre or post)

	// --- pedf accessors ---
	opData    // a=name index: push *Env.DataRef(name) (cloned unless c&loadBorrow)
	opAttr    // a=name index: push *Env.AttrRef(name) (cloned unless c&loadBorrow)
	opIORead  // a=name index: pop idx (c=intIndex: int stack), push Env.IORead(name, idx)
	opIOWrite // a=name index: pop v, pop idx (c=intIndex: int stack), Env.IOWrite, push v

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
	opBinTC // a=constR, c=binop: pop l, push l op consts[a]

	// --- typed scalars (int stack; bases are BaseType operands) ---
	opIConst     // a=const index: push consts[a].I
	opILoad      // a=slot: push ints[a]; error if slot not live
	opILoadV     // a=slot, b=base: push ints[a] as a Value; error if not live
	opIDecl      // a=slot, b=base: pop x, ints[a]=trunc(b, x), mark live
	opIStore     // a=slot, b=base: pop x, ints[a]=trunc(b, x), push it (c=1: no push)
	opIComp      // a=slot, b=binop|rbase<<8|base<<16: pop r, compound-assign, push (c=1: no push)
	opICompV     // a=slot, b=binop|base<<16: same with a run-time typed Value operand
	opIInc       // a=slot, b=incMode|base<<8; c bit 1: no push, bit 2: check liveness
	opIConv      // a=base: pop Value, require a numeric scalar, push trunc(a, v.I)
	opIBox       // a=base: pop x, push it as a Value
	opIPop       // discard top of int stack
	opIUnary     // a=0 neg, 1 bitnot, 2 not; b=operand base
	opIBin       // a=binop, b=lbase, c=rbase: pop r, pop l, push l op r
	opIJumpFalse // pop x; if x==0 jump a
	opIAndSC     // pop x; if x==0 push 0 and jump a
	opIOrSC      // pop x; if x!=0 push 1 and jump a
	opITruth     // pop x, push x!=0
	opIBuiltin   // a=builtin id, b=nargs, c=arg0 base|arg1 base<<8

	// Fused typed forms (c = binop|lbase<<8|rbase<<16).
	opIBinSS // a=slotL, b=slotR: push ints[a] op ints[b]
	opIBinSC // a=slotL, b=constR: push ints[a] op consts[b]
	opIBinTS // a=slotR: pop l, push l op ints[a]
	opIBinTC // a=constR: pop l, push l op consts[a]

	// Fused typed comparison + conditional branch (loop and if
	// conditions): the comparison id lives in c&15, c&16 marks an
	// unsigned comparison, the branch target is c>>5.
	opIJFCmpSS // a=slotL, b=slotR: if !(ints[a] cmp ints[b]) jump
	opIJFCmpSC // a=slotL, b=constR: if !(ints[a] cmp consts[b]) jump
)

// dynBase marks a slot that holds a Value (slotBase) rather than a
// typed scalar payload in Frame.ints.
const dynBase BaseType = -1

// intIndex, in the c operand of opRefIndex, opIORead and opIOWrite,
// means the index is a typed scalar on the int stack.
const intIndex = 1

// loadBorrow, in the c operand of opLoadSlot, opLoadRef, opData and
// opAttr, lets the load push an aggregate without cloning it: the
// compiler sets it where the consumer copies the value (or only reads
// it) before any other instruction can change the storage.
const loadBorrow = 1

// incMode values for opIInc/opIncRef (a or b operand).
const (
	incPre  = 0 // ++x → push new value
	incPost = 1 // x++ → push old value
	decPre  = 2
	decPost = 3
)

// binop ids for opBinary/opCompRef. applyBinary in eval.go
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

// builtin ids for opBuiltin and opIBuiltin.
const (
	builtinMin = iota
	builtinMax
	builtinAbs
	builtinClamp
)

// builtinIDs maps the builtin functions shared by all programs to their
// ids; a builtin's name takes precedence over a user function's.
var builtinIDs = map[string]int32{
	"min": builtinMin, "max": builtinMax, "abs": builtinAbs, "clamp": builtinClamp,
}

// ins is one VM instruction. Operands are indices (slots, constants,
// names, jump targets) — never pointers — so code objects are immutable
// and safely shared across interpreter instances. c carries the binop id
// of fused instructions and the "value discarded" flag (c=1) that the
// peephole pass sets on opStoreSlot/opIInc followed by opPop.
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
	slotNames  []string   // slot→name map ("" for compiler temporaries)
	slotBase   []BaseType // per slot: the typed scalar base, or dynBase
	scopeSlots [][]int32  // per lexical scope (by open order), the slots it owns

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

func opName(op opcode) string {
	names := map[opcode]string{
		opStmt: "stmt", opJump: "jump", opJumpFalse: "jumpfalse", opPop: "pop",
		opRet: "ret", opRetVoid: "retvoid", opKill: "kill", opErr: "err",
		opConst: "const", opZero: "zero", opLoadSlot: "loadslot",
		opCheckSlot: "checkslot", opDeclSlot: "declslot", opStoreSlot: "storeslot",
		opConv: "conv", opRefSlot: "refslot", opRefData: "refdata", opRefAttr: "refattr",
		opCheckArr: "checkarr", opRefIndex: "refindex", opRefMember: "refmember",
		opLoadRef:  "loadref",
		opStoreRef: "storeref", opCompRef: "compref", opIncRef: "incref",
		opData: "data", opAttr: "attr", opIORead: "ioread", opIOWrite: "iowrite",
		opScalarize: "scalarize", opNeg: "neg", opBitNot: "bitnot", opNot: "not",
		opBinary: "binary", opAndSC: "andsc", opOrSC: "orsc", opTruthBool: "truthbool",
		opCallUser: "calluser", opBuiltin: "builtin", opIntrinsic: "intrinsic",
		opSwitchCond: "switchcond", opCaseEq: "caseeq",
		opBinTC:  "bin.tc",
		opIConst: "i.const", opILoad: "i.load", opILoadV: "i.loadv", opIDecl: "i.decl",
		opIStore: "i.store", opIComp: "i.comp", opICompV: "i.compv", opIInc: "i.inc",
		opIConv: "i.conv", opIBox: "i.box", opIPop: "i.pop", opIUnary: "i.unary",
		opIBin: "i.bin", opIJumpFalse: "i.jumpfalse", opIAndSC: "i.andsc",
		opIOrSC: "i.orsc", opITruth: "i.truth", opIBuiltin: "i.builtin",
		opIBinSS: "i.bin.ss", opIBinSC: "i.bin.sc", opIBinTS: "i.bin.ts", opIBinTC: "i.bin.tc",
		opIJFCmpSS: "i.jfcmp.ss", opIJFCmpSC: "i.jfcmp.sc",
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
	// EngineDefault follows the build tag: the VM, or the walker under
	// -tags slowinterp.
	EngineDefault Engine = iota
	// EngineVM forces the bytecode VM.
	EngineVM
	// EngineWalker forces the tree-walking interpreter (the
	// differential-testing oracle).
	EngineWalker
)

func (in *Interp) useVM() bool {
	switch in.Engine {
	case EngineVM:
		return true
	case EngineWalker:
		return false
	}
	return buildDefaultVM
}
