package symexec

import (
	"fmt"

	"achilles/internal/expr"
	"achilles/internal/lang"
)

// eval converts an NL expression into a symbolic expression against the
// state's stores. Pure builtins (input, symbolic, len) are evaluated here;
// in concrete mode input() pops from the provided input queue.
func (e *engine) eval(st *State, fr *Frame, le lang.Expr) (*expr.Expr, error) {
	switch le := le.(type) {
	case *lang.IntLit:
		return expr.Const(le.Val), nil
	case *lang.BoolLit:
		return expr.Bool(le.Val), nil

	case *lang.VarExpr:
		switch le.Ref.Kind {
		case lang.RefConst:
			return expr.Const(le.Ref.Val), nil
		case lang.RefLocal, lang.RefGlobal:
			v := e.readVarRef(st, fr, le.Ref)
			if v.Sc == nil {
				return nil, fmt.Errorf("%s: %s is not a scalar", le.Pos_, le.Name)
			}
			return v.Sc, nil
		}
		return nil, fmt.Errorf("%s: unresolved identifier %s", le.Pos_, le.Name)

	case *lang.IndexExpr:
		av := e.readVarRef(st, fr, le.Ref)
		if av.Arr == nil {
			return nil, fmt.Errorf("%s: %s is not an array", le.Pos_, le.Name)
		}
		idx, err := e.eval(st, fr, le.Index)
		if err != nil {
			return nil, err
		}
		if !idx.IsConst() {
			return nil, fmt.Errorf("%s: symbolic array index is not supported (index %s)", le.Pos_, idx)
		}
		if idx.Val < 0 || idx.Val >= int64(len(av.Arr.Elems)) {
			return nil, fmt.Errorf("%s: index %d out of range [0,%d)", le.Pos_, idx.Val, len(av.Arr.Elems))
		}
		return av.Arr.Elems[idx.Val], nil

	case *lang.UnaryExpr:
		x, err := e.eval(st, fr, le.X)
		if err != nil {
			return nil, err
		}
		if le.Op == lang.TMinus {
			return expr.Neg(x), nil
		}
		return expr.Not(x), nil

	case *lang.BinaryExpr:
		x, err := e.eval(st, fr, le.X)
		if err != nil {
			return nil, err
		}
		y, err := e.eval(st, fr, le.Y)
		if err != nil {
			return nil, err
		}
		switch le.Op {
		case lang.TPlus:
			return expr.Add(x, y), nil
		case lang.TMinus:
			return expr.Sub(x, y), nil
		case lang.TStar:
			return expr.Mul(x, y), nil
		case lang.TSlash:
			if y.IsConst() && y.Val == 0 {
				return nil, fmt.Errorf("%s: division by zero", le.Pos_)
			}
			return expr.Div(x, y), nil
		case lang.TPercent:
			if y.IsConst() && y.Val == 0 {
				return nil, fmt.Errorf("%s: remainder by zero", le.Pos_)
			}
			return expr.Mod(x, y), nil
		case lang.TEq:
			return expr.Eq(x, y), nil
		case lang.TNe:
			return expr.Ne(x, y), nil
		case lang.TLt:
			return expr.Lt(x, y), nil
		case lang.TLe:
			return expr.Le(x, y), nil
		case lang.TGt:
			return expr.Gt(x, y), nil
		case lang.TGe:
			return expr.Ge(x, y), nil
		case lang.TAnd:
			return expr.And(x, y), nil
		case lang.TOr:
			return expr.Or(x, y), nil
		}
		return nil, fmt.Errorf("%s: bad binary op", le.Pos_)

	case *lang.CallExpr:
		switch le.Builtin {
		case lang.BInput, lang.BSymbolic:
			if e.opts.Concrete {
				if st.inputCursor >= len(e.opts.Inputs) {
					return nil, fmt.Errorf("%s: concrete input queue exhausted (%d consumed)", le.Pos_, st.inputCursor)
				}
				v := e.opts.Inputs[st.inputCursor]
				st.inputCursor++
				return expr.Const(v), nil
			}
			name := fmt.Sprintf("%s%d", e.opts.InputPrefix, st.varCounter)
			st.varCounter++
			return expr.Var(name), nil
		case lang.BLen:
			ve := le.Args[0].(*lang.VarExpr)
			av := e.readVarRef(st, fr, ve.Ref)
			if av.Arr == nil {
				return nil, fmt.Errorf("%s: len of non-array", le.Pos_)
			}
			return expr.Const(int64(len(av.Arr.Elems))), nil
		}
		return nil, fmt.Errorf("%s: call %s not allowed in expression", le.Pos_, le.Name)
	}
	return nil, fmt.Errorf("unhandled expression %T", le)
}
