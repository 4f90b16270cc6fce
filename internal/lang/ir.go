package lang

import "sync"

// This file lowers checked NL programs into a flat, jump-based IR. The
// symbolic execution engine interprets one IR instruction per step; all
// control flow is explicit, so forking a state is just copying a program
// counter plus the slot/global stores.

// OpCode identifies an IR instruction.
type OpCode uint8

// IR instruction set.
const (
	OpAssign OpCode = iota // Dst = eval(X)
	OpNewArr               // Dst = fresh zeroed array of length A
	OpStore                // Dst[eval(Index)] = eval(X)
	OpJmp                  // goto A
	OpCJmp                 // if eval(X) goto A else goto B
	OpCall                 // Dst? = Funcs[F](Args...)
	OpRet                  // return eval(X)?
	OpIntrin               // builtin Bi(Args...), result to Dst?
)

func (op OpCode) String() string {
	switch op {
	case OpAssign:
		return "assign"
	case OpNewArr:
		return "newarr"
	case OpStore:
		return "store"
	case OpJmp:
		return "jmp"
	case OpCJmp:
		return "cjmp"
	case OpCall:
		return "call"
	case OpRet:
		return "ret"
	case OpIntrin:
		return "intrin"
	}
	return "op?"
}

// VarRef names a storage location: a function-local slot or a module global.
type VarRef struct {
	Global bool
	Idx    int
}

// Instr is a single IR instruction. Expression operands reference the
// checked AST; the engine evaluates them against the state's stores.
type Instr struct {
	Op     OpCode
	Dst    VarRef
	HasDst bool
	Index  Expr    // OpStore index
	X      Expr    // value / condition expression
	Args   []Expr  // call or intrinsic arguments
	F      int     // OpCall target function index
	Bi     Builtin // OpIntrin builtin
	A, B   int     // jump targets (OpJmp/OpCJmp), array length (OpNewArr)
	Pos    Pos
}

// GlobalInfo describes one module global in a compiled unit.
type GlobalInfo struct {
	Name string
	Type Type
	Init int64 // initial value for scalars (0 when absent)
}

// IRFunc is one compiled function.
type IRFunc struct {
	Name     string
	Params   []Param
	Ret      Type
	NumSlots int
	Code     []Instr
}

// Unit is a compiled NL module, ready for interpretation.
type Unit struct {
	Funcs   []*IRFunc
	FuncIdx map[string]int
	Globals []GlobalInfo
	Consts  map[string]int64
	Source  *Program // checked AST, retained for tooling
}

// FuncNamed returns the compiled function with the given name, or nil.
func (u *Unit) FuncNamed(name string) *IRFunc {
	if i, ok := u.FuncIdx[name]; ok {
		return u.Funcs[i]
	}
	return nil
}

// GlobalNamed returns the index of a global by name, or -1.
func (u *Unit) GlobalNamed(name string) int {
	for i, g := range u.Globals {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// Compile parses, checks and lowers an NL module.
func Compile(src string) (*Unit, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return Lower(prog)
}

// compiled memoizes MustCompile: source text → *Unit.
var compiled sync.Map

// MustCompile is Compile for known-good embedded sources; it panics on error.
// Results are memoized by source, so each source compiles once per process
// and every call with it returns the same *Unit. The unit is shared: callers
// must treat it as read-only. Sources a program generates without bound
// belong in Compile, which the memo never holds on to.
func MustCompile(src string) *Unit {
	if u, ok := compiled.Load(src); ok {
		return u.(*Unit)
	}
	u, err := Compile(src)
	if err != nil {
		panic("lang: MustCompile: " + err.Error())
	}
	shared, _ := compiled.LoadOrStore(src, u)
	return shared.(*Unit)
}

// Lower converts a checked program to IR.
func Lower(prog *Program) (*Unit, error) {
	u := &Unit{
		FuncIdx: map[string]int{},
		Consts:  map[string]int64{},
		Source:  prog,
	}
	for _, d := range prog.Consts {
		u.Consts[d.Name] = d.Val
	}
	c := &checker{consts: u.Consts} // reuse constEval for global inits
	for _, g := range prog.Globals {
		gi := GlobalInfo{Name: g.Name, Type: g.Type}
		if g.Init != nil {
			v, err := c.constEval(g.Init)
			if err != nil {
				return nil, err
			}
			gi.Init = v
		}
		u.Globals = append(u.Globals, gi)
	}
	for i, f := range prog.Funcs {
		u.FuncIdx[f.Name] = i
	}
	for _, f := range prog.Funcs {
		irf, err := lowerFunc(f)
		if err != nil {
			return nil, err
		}
		u.Funcs = append(u.Funcs, irf)
	}
	return u, nil
}

// lowering context for one function.
type lowerer struct {
	code      []Instr
	breaks    [][]int // per-loop patch lists
	continues [][]int
}

func lowerFunc(f *FuncDecl) (*IRFunc, error) {
	lw := &lowerer{}
	// Local arrays declared with `var a [N]int` are allocated when their
	// DeclStmt executes; parameter arrays arrive by reference.
	if err := lw.stmts(f.Body); err != nil {
		return nil, err
	}
	// Implicit return (void functions or fall-through; non-void fall-through
	// returns the zero value).
	lw.emit(Instr{Op: OpRet, Pos: f.Pos})
	return &IRFunc{
		Name:     f.Name,
		Params:   f.Params,
		Ret:      f.Ret,
		NumSlots: f.NumSlots,
		Code:     lw.code,
	}, nil
}

func (lw *lowerer) emit(in Instr) int {
	lw.code = append(lw.code, in)
	return len(lw.code) - 1
}

func (lw *lowerer) stmts(list []Stmt) error {
	for _, s := range list {
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (lw *lowerer) stmt(s Stmt) error {
	switch s := s.(type) {
	case *DeclStmt:
		dst := VarRef{Global: false, Idx: s.Slot}
		if s.Type.Kind == TypeArray {
			lw.emit(Instr{Op: OpNewArr, Dst: dst, HasDst: true, A: s.Type.Len, Pos: s.Pos_})
			return nil
		}
		if s.Init == nil {
			lw.emit(Instr{Op: OpAssign, Dst: dst, HasDst: true, X: &IntLit{Pos_: s.Pos_}, Pos: s.Pos_})
			return nil
		}
		return lw.assignTo(dst, s.Init, s.Pos_)

	case *AssignStmt:
		dst := VarRef{Global: s.Ref.Kind == RefGlobal, Idx: s.Ref.Idx}
		if s.Index != nil {
			lw.emit(Instr{Op: OpStore, Dst: dst, HasDst: true, Index: s.Index, X: s.Value, Pos: s.Pos_})
			return nil
		}
		return lw.assignTo(dst, s.Value, s.Pos_)

	case *IfStmt:
		cj := lw.emit(Instr{Op: OpCJmp, X: s.Cond, Pos: s.Pos_})
		lw.code[cj].A = len(lw.code)
		if err := lw.stmts(s.Then); err != nil {
			return err
		}
		if s.Else == nil {
			end := lw.emit(Instr{Op: OpJmp, Pos: s.Pos_})
			lw.code[end].A = len(lw.code)
			lw.code[cj].B = len(lw.code)
			return nil
		}
		jmpEnd := lw.emit(Instr{Op: OpJmp, Pos: s.Pos_})
		lw.code[cj].B = len(lw.code)
		if err := lw.stmts(s.Else); err != nil {
			return err
		}
		lw.code[jmpEnd].A = len(lw.code)
		return nil

	case *WhileStmt:
		top := len(lw.code)
		cj := lw.emit(Instr{Op: OpCJmp, X: s.Cond, Pos: s.Pos_})
		lw.code[cj].A = len(lw.code)
		lw.breaks = append(lw.breaks, nil)
		lw.continues = append(lw.continues, nil)
		if err := lw.stmts(s.Body); err != nil {
			return err
		}
		lw.emit(Instr{Op: OpJmp, A: top, Pos: s.Pos_})
		end := len(lw.code)
		lw.code[cj].B = end
		for _, b := range lw.breaks[len(lw.breaks)-1] {
			lw.code[b].A = end
		}
		for _, ct := range lw.continues[len(lw.continues)-1] {
			lw.code[ct].A = top
		}
		lw.breaks = lw.breaks[:len(lw.breaks)-1]
		lw.continues = lw.continues[:len(lw.continues)-1]
		return nil

	case *BreakStmt:
		i := lw.emit(Instr{Op: OpJmp, Pos: s.Pos_})
		lw.breaks[len(lw.breaks)-1] = append(lw.breaks[len(lw.breaks)-1], i)
		return nil

	case *ContinueStmt:
		i := lw.emit(Instr{Op: OpJmp, Pos: s.Pos_})
		lw.continues[len(lw.continues)-1] = append(lw.continues[len(lw.continues)-1], i)
		return nil

	case *ReturnStmt:
		if call, ok := s.Value.(*CallExpr); ok && call.Builtin == BNone {
			// return f(...) lowers to: tmp-less call into the return slot is
			// not available; instead emit call with a dedicated return-value
			// convention: OpCall with HasDst=false leaves the value in the
			// frame's ret register, then OpRet with nil X returns it.
			lw.emit(Instr{Op: OpCall, F: call.FuncIdx, Args: call.Args, Pos: s.Pos_})
			lw.emit(Instr{Op: OpRet, X: retRegister{}, Pos: s.Pos_})
			return nil
		}
		lw.emit(Instr{Op: OpRet, X: s.Value, Pos: s.Pos_})
		return nil

	case *ExprStmt:
		call := s.Call
		if call.Builtin != BNone {
			lw.emit(Instr{Op: OpIntrin, Bi: call.Builtin, Args: call.Args, Pos: s.Pos_})
			return nil
		}
		lw.emit(Instr{Op: OpCall, F: call.FuncIdx, Args: call.Args, Pos: s.Pos_})
		return nil
	}
	return errorf(s.stmtPos(), "unhandled statement in lowering")
}

// retRegister is a pseudo-expression marking "the value left by the most
// recent OpCall in this frame". It only appears as the X of an OpRet emitted
// for `return f(...)`.
type retRegister struct{}

func (retRegister) pos() Pos { return Pos{} }

// IsRetRegister reports whether e is the pseudo-expression produced when
// lowering `return f(...)`; the engine reads the frame's return register
// instead of evaluating it.
func IsRetRegister(e Expr) bool {
	_, ok := e.(retRegister)
	return ok
}

// assignTo emits the instruction(s) for dst = value, where value may be a
// top-level user call or intrinsic call.
func (lw *lowerer) assignTo(dst VarRef, value Expr, pos Pos) error {
	if call, ok := value.(*CallExpr); ok {
		if call.Builtin == BNone {
			lw.emit(Instr{Op: OpCall, Dst: dst, HasDst: true, F: call.FuncIdx, Args: call.Args, Pos: pos})
			return nil
		}
		if !call.Builtin.pure() {
			lw.emit(Instr{Op: OpIntrin, Dst: dst, HasDst: true, Bi: call.Builtin, Args: call.Args, Pos: pos})
			return nil
		}
	}
	lw.emit(Instr{Op: OpAssign, Dst: dst, HasDst: true, X: value, Pos: pos})
	return nil
}
