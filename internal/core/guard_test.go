package core_test

import (
	"fmt"
	"slices"
	"testing"

	"achilles/internal/core"
	"achilles/internal/expr"
	"achilles/internal/solver"
)

// guardMessage is one concrete message the §4 guard is asked about, in the
// shared-state world it is checked in.
type guardMessage struct {
	msg      []int64
	stateEnv expr.Env
	origin   string
}

// key identifies the message and its state world; fmt prints maps sorted.
func (m guardMessage) key() string { return fmt.Sprint(m.msg, m.stateEnv) }

// guardMessages returns every report's concrete message, each one-field
// change of it (+1, -1 and 0), and one message per client path generated
// from a model of that path's binding constraints.
func guardMessages(t *testing.T, run *core.RunResult, stateVars []string, s *solver.Solver) []guardMessage {
	t.Helper()
	var out []guardMessage
	for _, tr := range run.Analysis.Trojans {
		out = append(out, guardMessage{tr.Concrete, tr.StateEnv, fmt.Sprintf("report %d", tr.Index)})
		for f := range tr.Concrete {
			for _, v := range []int64{tr.Concrete[f] + 1, tr.Concrete[f] - 1, 0} {
				msg := slices.Clone(tr.Concrete)
				msg[f] = v
				out = append(out, guardMessage{msg, tr.StateEnv, fmt.Sprintf("report %d, m%d=%d", tr.Index, f, v)})
			}
		}
	}
	pc := run.Clients
	for i, cp := range pc.Paths {
		res, model := s.Check(cp.Bind())
		if res != solver.Sat {
			t.Fatalf("client path %d: Bind() is %v, want Sat", i, res)
		}
		msg := make([]int64, pc.NumFields)
		for f := range msg {
			msg[f] = model[pc.MsgVarName(f)]
		}
		env := expr.Env{}
		for _, g := range stateVars {
			env["state_"+g] = model["state_"+g]
		}
		out = append(out, guardMessage{msg, env, fmt.Sprintf("client path %d", i)})
	}
	return out
}

// notClientReference is the all-solver §4 guard: one solver query per
// client path, no refutation step.
func notClientReference(pc *core.ClientPredicate, s *solver.Solver, m guardMessage) (bool, []solver.Result) {
	eqs := make([]*expr.Expr, 0, len(m.msg)+len(m.stateEnv))
	for f, v := range m.msg {
		eqs = append(eqs, expr.Eq(expr.Var(pc.MsgVarName(f)), expr.Const(v)))
	}
	for name, v := range m.stateEnv {
		eqs = append(eqs, expr.Eq(expr.Var(name), expr.Const(v)))
	}
	verdicts := make([]solver.Result, len(pc.Paths))
	notClient := true
	for i, cp := range pc.Paths {
		verdicts[i], _ = s.Check(append(slices.Clone(cp.Bind()), eqs...))
		if verdicts[i] == solver.Sat {
			notClient = false
		}
	}
	return notClient, verdicts
}

// TestGuardRefutationDifferential holds the §4 guard's concrete refutation
// step against the solver it stands in for, over every registry target in
// all three analysis modes. For every message and client path the step must
// never rule out a path whose binding the solver satisfies, and the guard's
// verdict must equal the all-solver reference.
func TestGuardRefutationDifferential(t *testing.T) {
	modes := []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori}
	for _, d := range catalog(t) {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			t.Parallel()
			stateVars := d.Target().ServerExec.GlobalSymbolic
			ref := solver.New(solver.Options{})
			seen := map[string]bool{}
			var checked, refuted, sat int
			for _, mode := range modes {
				run, err := d.Run(mode, 1)
				if err != nil {
					t.Fatalf("%v: %v", mode, err)
				}
				pc := run.Clients
				guard := solver.New(solver.Options{})
				for _, m := range guardMessages(t, run, stateVars, ref) {
					if seen[m.key()] {
						continue
					}
					seen[m.key()] = true
					want, verdicts := notClientReference(pc, ref, m)
					for i, res := range verdicts {
						checked++
						if res == solver.Sat {
							sat++
						}
						if !core.RefutedAt(pc, i, m.msg) {
							continue
						}
						refuted++
						if res == solver.Sat {
							t.Errorf("%v, %s %v: client path %d refuted, but the solver finds it Sat",
								mode, m.origin, m.msg, i)
						}
					}
					if got := core.VerifyNotClient(pc, guard, m.msg, m.stateEnv); got != want {
						t.Errorf("%v, %s %v: guard says not-client=%v, all-solver reference says %v",
							mode, m.origin, m.msg, got, want)
					}
				}
			}
			if sat == 0 {
				t.Fatal("no message was generatable by any client path; the differential is vacuous")
			}
			t.Logf("%d path checks: %d refuted concretely, %d Sat", checked, refuted, sat)
		})
	}
}
