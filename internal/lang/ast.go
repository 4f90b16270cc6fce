package lang

// TypeKind classifies NL types.
type TypeKind uint8

// NL types: 64-bit integers, booleans, and fixed-size integer arrays.
// Function parameters may use unsized arrays ([]int), which accept any array
// argument by reference.
const (
	TypeInt TypeKind = iota
	TypeBool
	TypeArray
	TypeVoid // function "return type" when absent
)

// Type is an NL type. Len is the array length; -1 for unsized parameter
// arrays.
type Type struct {
	Kind TypeKind
	Len  int
}

func (t Type) String() string {
	switch t.Kind {
	case TypeInt:
		return "int"
	case TypeBool:
		return "bool"
	case TypeVoid:
		return "void"
	case TypeArray:
		if t.Len < 0 {
			return "[]int"
		}
		return "[n]int"
	}
	return "?"
}

// RefKind classifies what an identifier resolved to.
type RefKind uint8

// Identifier resolution targets.
const (
	RefNone   RefKind = iota
	RefLocal          // function local or parameter: slot index
	RefGlobal         // module global: global index
	RefConst          // named constant: folded value
)

// Ref is the resolved target of an identifier, filled by the type checker.
type Ref struct {
	Kind RefKind
	Idx  int   // slot or global index
	Val  int64 // constant value for RefConst
}

// Expr is an NL expression AST node.
type Expr interface{ pos() Pos }

// IntLit is an integer literal.
type IntLit struct {
	Pos_ Pos
	Val  int64
}

// BoolLit is true/false.
type BoolLit struct {
	Pos_ Pos
	Val  bool
}

// VarExpr is an identifier reference.
type VarExpr struct {
	Pos_ Pos
	Name string
	Ref  Ref // filled by the checker
}

// IndexExpr is arr[idx].
type IndexExpr struct {
	Pos_  Pos
	Name  string
	Ref   Ref // the array variable
	Index Expr
}

// UnaryExpr is -x or !x.
type UnaryExpr struct {
	Pos_ Pos
	Op   TokKind // TMinus or TNot
	X    Expr
}

// BinaryExpr is x OP y.
type BinaryExpr struct {
	Pos_ Pos
	Op   TokKind
	X, Y Expr
}

// CallExpr is a user-function or builtin call. User calls are only permitted
// in statement position or as the entire right-hand side of an assignment;
// pure builtins (input, symbolic, len) may appear anywhere in expressions.
type CallExpr struct {
	Pos_    Pos
	Name    string
	Args    []Expr
	Builtin Builtin // BNone for user calls
	FuncIdx int     // resolved user function index
}

func (e *IntLit) pos() Pos     { return e.Pos_ }
func (e *BoolLit) pos() Pos    { return e.Pos_ }
func (e *VarExpr) pos() Pos    { return e.Pos_ }
func (e *IndexExpr) pos() Pos  { return e.Pos_ }
func (e *UnaryExpr) pos() Pos  { return e.Pos_ }
func (e *BinaryExpr) pos() Pos { return e.Pos_ }
func (e *CallExpr) pos() Pos   { return e.Pos_ }

// Builtin identifies NL intrinsic functions.
type Builtin uint8

// The NL intrinsics. They model the node's environment, mirroring the
// paper's system-call interception (§5.1) and annotations (§5.2):
//
//	recv(arr)      fill arr with a fresh unconstrained symbolic message
//	send(arr)      emit arr as a message (client predicate capture point)
//	input()        fresh symbolic "local input" (intercepted read)
//	symbolic()     alias of input(), used for over-approximate local state
//	assume(cond)   constrain the current path (drop_path when infeasible)
//	accept()       mark_accept: terminate the path as accepting
//	reject()       mark_reject: terminate the path as rejecting
//	exit()         terminate the path without a verdict
//	len(arr)       the (constant) array length
const (
	BNone Builtin = iota
	BRecv
	BSend
	BInput
	BSymbolic
	BAssume
	BAccept
	BReject
	BExit
	BLen
)

var builtinNames = map[string]Builtin{
	"recv": BRecv, "send": BSend, "input": BInput, "symbolic": BSymbolic,
	"assume": BAssume, "accept": BAccept, "reject": BReject, "exit": BExit,
	"len": BLen,
}

// pure builtins may be used inside arbitrary expressions.
func (b Builtin) pure() bool { return b == BInput || b == BSymbolic || b == BLen }

// Stmt is an NL statement AST node.
type Stmt interface{ stmtPos() Pos }

// DeclStmt declares a local variable with an optional initialiser.
type DeclStmt struct {
	Pos_ Pos
	Name string
	Type Type
	Init Expr // nil for zero value
	Slot int  // filled by the checker
}

// AssignStmt assigns to a variable or array element.
type AssignStmt struct {
	Pos_  Pos
	Name  string
	Ref   Ref
	Index Expr // nil for scalar assignment
	Value Expr
}

// IfStmt is if/else.
type IfStmt struct {
	Pos_ Pos
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos_ Pos
	Cond Expr
	Body []Stmt
}

// ReturnStmt returns from the current function.
type ReturnStmt struct {
	Pos_  Pos
	Value Expr // nil for void
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos_ Pos }

// ContinueStmt restarts the innermost loop.
type ContinueStmt struct{ Pos_ Pos }

// ExprStmt is a call in statement position.
type ExprStmt struct {
	Pos_ Pos
	Call *CallExpr
}

func (s *DeclStmt) stmtPos() Pos     { return s.Pos_ }
func (s *AssignStmt) stmtPos() Pos   { return s.Pos_ }
func (s *IfStmt) stmtPos() Pos       { return s.Pos_ }
func (s *WhileStmt) stmtPos() Pos    { return s.Pos_ }
func (s *ReturnStmt) stmtPos() Pos   { return s.Pos_ }
func (s *BreakStmt) stmtPos() Pos    { return s.Pos_ }
func (s *ContinueStmt) stmtPos() Pos { return s.Pos_ }
func (s *ExprStmt) stmtPos() Pos     { return s.Pos_ }

// ConstDecl is a named integer constant.
type ConstDecl struct {
	Pos  Pos
	Name string
	Val  int64
}

// GlobalDecl is a module-level variable.
type GlobalDecl struct {
	Pos  Pos
	Name string
	Type Type
	Init Expr // optional scalar initialiser (constant expression)
}

// FuncDecl is a function definition.
type FuncDecl struct {
	Pos      Pos
	Name     string
	Params   []Param
	Ret      Type // TypeVoid when absent
	Body     []Stmt
	NumSlots int // local slot count, filled by the checker
}

// Param is one function parameter.
type Param struct {
	Pos  Pos
	Name string
	Type Type
}

// Program is a parsed NL module.
type Program struct {
	Consts  []*ConstDecl
	Globals []*GlobalDecl
	Funcs   []*FuncDecl
}
