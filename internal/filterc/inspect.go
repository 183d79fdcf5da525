package filterc

// Read-only bytecode inspection API for out-of-package analyses
// (internal/analysis/absint). The abstract interpreter must see exactly
// the instruction stream the VM executes — including the peephole-fused
// forms — so this file exports the compiled representation plus the VM's
// own arithmetic kernels instead of a parallel re-implementation.

// Op is the exported opcode type.
type Op = opcode

// Exported opcode constants (one per VM instruction; operand meanings
// are documented on the unexported enum in code.go).
const (
	OpInvalid    = opInvalid
	OpStmt       = opStmt
	OpJump       = opJump
	OpJumpFalse  = opJumpFalse
	OpPop        = opPop
	OpRet        = opRet
	OpRetVoid    = opRetVoid
	OpKill       = opKill
	OpErr        = opErr
	OpConst      = opConst
	OpZero       = opZero
	OpLoadSlot   = opLoadSlot
	OpCheckSlot  = opCheckSlot
	OpDeclSlot   = opDeclSlot
	OpStoreSlot  = opStoreSlot
	OpConv       = opConv
	OpRefSlot    = opRefSlot
	OpRefData    = opRefData
	OpRefAttr    = opRefAttr
	OpCheckArr   = opCheckArr
	OpRefIndex   = opRefIndex
	OpRefMember  = opRefMember
	OpLoadRef    = opLoadRef
	OpStoreRef   = opStoreRef
	OpCompRef    = opCompRef
	OpIncRef     = opIncRef
	OpData       = opData
	OpAttr       = opAttr
	OpIORead     = opIORead
	OpIOWrite    = opIOWrite
	OpScalarize  = opScalarize
	OpNeg        = opNeg
	OpBitNot     = opBitNot
	OpNot        = opNot
	OpBinary     = opBinary
	OpAndSC      = opAndSC
	OpOrSC       = opOrSC
	OpTruthBool  = opTruthBool
	OpCallUser   = opCallUser
	OpBuiltin    = opBuiltin
	OpIntrinsic  = opIntrinsic
	OpSwitchCond = opSwitchCond
	OpCaseEq     = opCaseEq
	OpBinTC      = opBinTC
	OpIConst     = opIConst
	OpILoad      = opILoad
	OpILoadV     = opILoadV
	OpIDecl      = opIDecl
	OpIStore     = opIStore
	OpIComp      = opIComp
	OpICompV     = opICompV
	OpIInc       = opIInc
	OpIConv      = opIConv
	OpIBox       = opIBox
	OpIPop       = opIPop
	OpIUnary     = opIUnary
	OpIBin       = opIBin
	OpIJumpFalse = opIJumpFalse
	OpIAndSC     = opIAndSC
	OpIOrSC      = opIOrSC
	OpITruth     = opITruth
	OpIBuiltin   = opIBuiltin
	OpIBinSS     = opIBinSS
	OpIBinSC     = opIBinSC
	OpIBinTS     = opIBinTS
	OpIBinTC     = opIBinTC
	OpIJFCmpSS   = opIJFCmpSS
	OpIJFCmpSC   = opIJFCmpSC
)

// Exported increment modes (a of OpIncRef, the
// low byte of b of OpIInc).
const (
	IncPre  = incPre
	IncPost = incPost
	DecPre  = decPre
	DecPost = decPost
)

// Exported binop ids (operand of OpBinary/OpCompRef/OpIBin,
// the low byte of OpIComp/OpICompV's b and of the fused OpIBin*'s c, the
// c operand of OpBinTC and the low four bits of OpIJFCmp*'s c).
const (
	BinAdd = bAdd
	BinSub = bSub
	BinMul = bMul
	BinDiv = bDiv
	BinMod = bMod
	BinAnd = bAnd
	BinOr  = bOr
	BinXor = bXor
	BinShl = bShl
	BinShr = bShr
	BinEq  = bEq
	BinNe  = bNe
	BinLt  = bLt
	BinLe  = bLe
	BinGt  = bGt
	BinGe  = bGe
	BinBad = bBad
)

// Exported builtin ids (operand a of OpBuiltin).
const (
	BuiltinMin   = builtinMin
	BuiltinMax   = builtinMax
	BuiltinAbs   = builtinAbs
	BuiltinClamp = builtinClamp
)

// Instr is one exported VM instruction.
type Instr struct {
	Op      Op
	A, B, C int32
}

// FuncBytecode is the exported compiled form of one function.
type FuncBytecode struct {
	Fn         *FuncDecl
	Code       []Instr
	Pos        []Pos // parallel to Code
	NSlots     int
	SlotNames  []string  // slot→name ("" for compiler temporaries)
	ScopeSlots [][]int32 // per lexical scope (OpKill operand a), the slots it owns
	Consts     []Value
	Types      []*Type
	Names      []string // identifier pool: fields, pedf names, intrinsics, messages
}

// ProgramBytecode is the exported compiled form of a whole program.
type ProgramBytecode struct {
	Funcs  []*FuncBytecode // OpCallUser operand a indexes this
	ByName map[string]*FuncBytecode
}

// Bytecode returns the compiled form of prog, exactly as the VM runs it
// (same compiled code, same peephole output). The returned slices
// alias the program's code object and must not be mutated.
func Bytecode(prog *Program) *ProgramBytecode {
	c := prog.compiled()
	pb := &ProgramBytecode{ByName: make(map[string]*FuncBytecode, len(c.flist))}
	for _, fc := range c.flist {
		code := make([]Instr, len(fc.code))
		for i, in := range fc.code {
			code[i] = Instr{Op: in.op, A: in.a, B: in.b, C: in.c}
		}
		fb := &FuncBytecode{
			Fn:         fc.fn,
			Code:       code,
			Pos:        fc.pos,
			NSlots:     fc.nslots,
			SlotNames:  fc.slotNames,
			ScopeSlots: fc.scopeSlots,
			Consts:     fc.consts,
			Types:      fc.types,
			Names:      fc.names,
		}
		pb.Funcs = append(pb.Funcs, fb)
		pb.ByName[fc.fn.Name] = fb
	}
	return pb
}

// OpString renders an opcode mnemonic.
func OpString(op Op) string { return opName(op) }

// BinOpString renders a binop id as its source operator.
func BinOpString(id int) string {
	if id >= 0 && id < len(binOpNames) {
		return binOpNames[id]
	}
	return "?"
}

// EvalBinOp applies one scalar binary operation with the VM's exact
// semantics (promotion, unsigned reinterpretation, truncation). ok is
// false when the VM would raise a runtime error (division by zero,
// out-of-range shift) or when an operand is not a numeric scalar.
func EvalBinOp(id int, l, r Value) (Value, bool) {
	if !l.IsScalar() || !r.IsScalar() {
		return Value{}, false
	}
	return applyBinaryFast(id, l.Type.Base, r.Type.Base, l.I, r.I)
}

// EvalBuiltin applies one builtin (min/max/abs/clamp) with the VM's
// exact semantics. ok is false when the VM would raise a runtime error.
func EvalBuiltin(id int, args []Value) (Value, bool) {
	v, err := callBuiltin(id, args, len(args), Pos{})
	return v, err == nil
}

// CaseMatches exposes the VM's switch rule: whether case label v selects
// a switch whose controlling value cond has base cb.
func CaseMatches(cb BaseType, cond, v int64) bool { return caseMatches(cb, cond, v) }

// PromoteBase exposes the VM's integer-promotion rule.
func PromoteBase(a, b BaseType) BaseType { return promoteBase(a, b) }

// Promote32 exposes the VM's unary-promotion rule (shift results, -x,
// ~x promote operands narrower than 32 bits).
func Promote32(b BaseType) BaseType { return promote32(b) }

// TypesCompatible exposes the VM's aggregate-assignment compatibility
// rule.
func TypesCompatible(want, got *Type) bool { return typeCompatible(want, got) }

// ConvertScalar coerces a scalar value into scalar type t exactly as an
// assignment would (truncation, signedness). ok is false when either
// side is not a numeric scalar.
func ConvertScalar(t *Type, v Value) (Value, bool) {
	if t == nil || t.Kind != KScalar || t.Base == Str || t.Base == Void || !v.IsScalar() {
		return Value{}, false
	}
	return Int(t.Base, v.I), true
}
