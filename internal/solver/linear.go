package solver

import (
	"fmt"
	"strings"

	"achilles/internal/expr"
)

// linOp is the normalised comparison operator of a linear atom.
type linOp uint8

const (
	opLe linOp = iota // sum + c <= 0
	opEq              // sum + c == 0
	opNe              // sum + c != 0
)

// linAtom is a comparison normalised to  Σ coeffs[i]·vars[i] + c  OP  0.
// vars holds unique names; coeffs are the folded coefficients.
type linAtom struct {
	op     linOp
	vars   []string
	coeffs []int64
	c      int64
	orig   *expr.Expr

	// ckey/cneg cache key(): atoms are interned and shared across queries
	// (and goroutines), so the canonical fingerprint is rendered once at
	// linearise time instead of per linearConflict scan.
	ckey string
	cneg bool
	// ckeyID is the arena-assigned small integer for ckey (0 = unassigned).
	// Two atoms of one solver share a combination iff their IDs are equal
	// and nonzero, which lets linearConflict detect "no shared combination"
	// with integer compares instead of string-keyed maps.
	ckeyID uint32
}

// linearise converts a comparison expression into a linear atom. It returns
// false when the expression is not a comparison or contains non-linear
// arithmetic (division, remainder, variable products).
func linearise(e *expr.Expr) (*linAtom, bool) {
	switch e.Kind {
	case expr.KEq, expr.KNe, expr.KLt, expr.KLe, expr.KGt, expr.KGe:
	default:
		return nil, false
	}
	acc := map[string]int64{}
	c := int64(0)
	if !collectLinear(e.Args[0], 1, acc, &c) {
		return nil, false
	}
	if !collectLinear(e.Args[1], -1, acc, &c) {
		return nil, false
	}
	la := &linAtom{orig: e}
	switch e.Kind {
	case expr.KEq:
		la.op = opEq
	case expr.KNe:
		la.op = opNe
	case expr.KLe:
		la.op = opLe
	case expr.KLt:
		la.op = opLe
		c = satAdd(c, 1) // a < 0  <=>  a + 1 <= 0 over the integers
	case expr.KGe:
		la.op = opLe
		negateAcc(acc)
		c = satNeg(c)
	case expr.KGt:
		la.op = opLe
		negateAcc(acc)
		c = satAdd(satNeg(c), 1)
	}
	la.c = c
	// Deterministic ordering: the expression's variable order is stable
	// because expr.Vars sorts names.
	for _, v := range expr.Vars(e) {
		if acc[v] != 0 {
			la.vars = append(la.vars, v)
			la.coeffs = append(la.coeffs, acc[v])
		}
	}
	la.ckey, la.cneg = la.key()
	return la, true
}

func negateAcc(acc map[string]int64) {
	for k, v := range acc {
		acc[k] = satNeg(v)
	}
}

// key returns a canonical fingerprint of the atom's linear combination
// (variables and coefficients, excluding the constant and operator), plus
// whether the stored form is negated relative to the canonical orientation.
// Canonical orientation: the first coefficient is positive.
func (la *linAtom) key() (string, bool) {
	if len(la.vars) == 0 {
		return "", false
	}
	negated := la.coeffs[0] < 0
	var b strings.Builder
	for i, v := range la.vars {
		c := la.coeffs[i]
		if negated {
			c = satNeg(c)
		}
		fmt.Fprintf(&b, "%s*%d;", v, c)
	}
	return b.String(), negated
}

// orientedC returns the atom's constant in canonical orientation.
func (la *linAtom) orientedC(negated bool) int64 {
	if negated {
		return satNeg(la.c)
	}
	return la.c
}

// linearConflict detects contradictions between pairs of linear atoms over
// the same combination of variables — cases interval propagation cannot see
// when the variables are individually unbounded, e.g.
//
//	x - y == 0  ∧  x - y != 0          (complement pair)
//	x - y == 1  ∧  x - y == 2          (distinct equalities)
//	x - y <= -1 ∧  y - x <= 0          (empty band)
//
// These shapes dominate Achilles' Trojan queries over shared state.
func linearConflict(atoms []*linAtom) bool {
	// Fast path: a conflict needs at least two atoms over the same canonical
	// combination, and interned atoms carry an integer ID per combination.
	// When all IDs are distinct (the common case for a freshly extended
	// path), no conflict is possible and the string-keyed bookkeeping below
	// — maps allocated per call — is skipped entirely. An unassigned ID
	// (atom built outside the arena) conservatively forces the full scan.
	var idBuf [64]uint32
	seen := idBuf[:0]
	dup := false
scan:
	for _, a := range atoms {
		if a.ckey == "" {
			continue
		}
		if a.ckeyID == 0 {
			dup = true
			break
		}
		for _, id := range seen {
			if id == a.ckeyID {
				dup = true
				break scan
			}
		}
		seen = append(seen, a.ckeyID)
	}
	if !dup {
		return false
	}
	// Slow path: at least two atoms share a combination. Group atoms by
	// combination with pairwise ID compares and run the per-combination
	// bookkeeping on stack-allocated state — groups are tiny, so linear
	// scans over small constant slices replace the string-keyed maps this
	// used to allocate per call.
	n := len(atoms)
	var doneBuf [128]bool
	var done []bool
	if n <= len(doneBuf) {
		done = doneBuf[:n]
	} else {
		done = make([]bool, n)
	}
	sameComb := func(a, b *linAtom) bool {
		if a.ckeyID != 0 && b.ckeyID != 0 {
			return a.ckeyID == b.ckeyID
		}
		return a.ckey == b.ckey
	}
	for i := 0; i < n; i++ {
		if done[i] || atoms[i].ckey == "" {
			continue
		}
		var g combGroup
		if g.add(atoms[i]) {
			return true
		}
		for j := i + 1; j < n; j++ {
			if done[j] || atoms[j].ckey == "" || !sameComb(atoms[i], atoms[j]) {
				continue
			}
			done[j] = true
			if g.add(atoms[j]) {
				return true
			}
		}
	}
	return false
}

// combGroup accumulates the atoms of one canonical combination S and detects
// contradictions among them. The zero value is ready to use. It holds no
// pointer into itself, so a group stays on linearConflict's stack: the first
// four disequality constants sit in a fixed array and only a fifth spills.
// Equalities need no list at all: a second equality with another constant is
// already a conflict, so every equality seen has the constant eqC.
type combGroup struct {
	neBuf  [4]int64 // S + c != 0 seen, the first nne of them
	nne    int
	neMore []int64 // disequality constants beyond the fourth
	leMin  int64   // tightest S <= -c  =>  upper bound of S
	hasLe  bool
	geMax  int64 // from negated-orientation Le: lower bound of S
	hasGe  bool
	eqOnce bool
	eqC    int64
}

func containsI64(xs []int64, v int64) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// add folds one atom into the group, reporting whether it contradicts what
// came before. The transitions mirror the original map-based scan exactly.
func (g *combGroup) add(a *linAtom) bool {
	c := a.orientedC(a.cneg)
	switch a.op {
	case opEq:
		if containsI64(g.neBuf[:g.nne], c) || containsI64(g.neMore, c) {
			return true
		}
		if g.eqOnce && g.eqC != c {
			return true
		}
		g.eqOnce, g.eqC = true, c
		if g.hasLe && satNeg(c) > g.leMin {
			return true
		}
		if g.hasGe && satNeg(c) < g.geMax {
			return true
		}
	case opNe:
		if g.eqOnce && g.eqC == c {
			return true
		}
		if g.nne < len(g.neBuf) {
			g.neBuf[g.nne] = c
			g.nne++
		} else {
			g.neMore = append(g.neMore, c)
		}
	case opLe:
		// Stored: Σ coeff·x + a.c <= 0. In canonical orientation S:
		// if not negated: S <= -c (upper bound); else the orientation flip
		// turns it into a lower bound: S >= a.c.
		if !a.cneg {
			ub := satNeg(a.c)
			if !g.hasLe || ub < g.leMin {
				g.hasLe, g.leMin = true, ub
			}
		} else {
			lb := a.c
			if !g.hasGe || lb > g.geMax {
				g.hasGe, g.geMax = true, lb
			}
		}
		if g.hasLe && g.hasGe && g.geMax > g.leMin {
			return true
		}
		if g.eqOnce && g.hasLe && satNeg(g.eqC) > g.leMin {
			return true
		}
		if g.eqOnce && g.hasGe && satNeg(g.eqC) < g.geMax {
			return true
		}
	}
	return false
}

// collectLinear accumulates sign*e into acc/c, returning false on non-linear
// structure.
func collectLinear(e *expr.Expr, sign int64, acc map[string]int64, c *int64) bool {
	switch e.Kind {
	case expr.KConst:
		*c = satAdd(*c, satMul(sign, e.Val))
		return true
	case expr.KVar:
		acc[e.Name] = satAdd(acc[e.Name], sign)
		return true
	case expr.KNeg:
		return collectLinear(e.Args[0], satNeg(sign), acc, c)
	case expr.KAdd:
		return collectLinear(e.Args[0], sign, acc, c) && collectLinear(e.Args[1], sign, acc, c)
	case expr.KSub:
		return collectLinear(e.Args[0], sign, acc, c) && collectLinear(e.Args[1], satNeg(sign), acc, c)
	case expr.KMul:
		a, b := e.Args[0], e.Args[1]
		if a.IsConst() {
			return collectLinear(b, satMul(sign, a.Val), acc, c)
		}
		if b.IsConst() {
			return collectLinear(a, satMul(sign, b.Val), acc, c)
		}
		return false
	default:
		return false
	}
}
