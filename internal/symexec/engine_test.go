package symexec

import (
	"strings"
	"testing"

	"achilles/internal/expr"
	"achilles/internal/lang"
	"achilles/internal/solver"
)

// raceEnabled is set when the tests run under the race detector.
var raceEnabled bool

func compile(t *testing.T, src string) *lang.Unit {
	t.Helper()
	u, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func run(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := Run(compile(t, src), opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStraightLineConcrete(t *testing.T) {
	res := run(t, `
var out int;
func double(x int) int { return x + x; }
func main() {
	var a int = 3;
	var b int = double(a);
	out = b * 7;
	exit();
}`, Options{})
	if len(res.States) != 1 {
		t.Fatalf("want 1 state, got %d", len(res.States))
	}
	st := res.States[0]
	if st.Status != StatusExited {
		t.Fatalf("status %v, err %v", st.Status, st.Err)
	}
	if got := st.Globals[0].Sc; !got.IsConst() || got.Val != 42 {
		t.Fatalf("out = %s, want 42", got)
	}
}

func TestReturnCall(t *testing.T) {
	res := run(t, `
var out int;
func g(a int) int { return a + 1; }
func f(x int) int { return g(x * 2); }
func main() { out = f(10); }`, Options{})
	st := res.States[0]
	if st.Status != StatusExited {
		t.Fatalf("status %v err %v", st.Status, st.Err)
	}
	if st.Globals[0].Sc.Val != 21 {
		t.Fatalf("out = %s", st.Globals[0].Sc)
	}
}

func TestWhileLoopConcrete(t *testing.T) {
	res := run(t, `
var sum int;
func main() {
	var i int = 0;
	while i < 5 {
		sum = sum + i;
		i = i + 1;
	}
}`, Options{})
	if v := res.States[0].Globals[0].Sc.Val; v != 10 {
		t.Fatalf("sum = %d, want 10", v)
	}
}

func TestBreakContinue(t *testing.T) {
	res := run(t, `
var sum int;
func main() {
	var i int = 0;
	while i < 100 {
		i = i + 1;
		if i == 3 { continue; }
		if i > 5 { break; }
		sum = sum + i;
	}
}`, Options{})
	// 1 + 2 + 4 + 5 = 12
	if v := res.States[0].Globals[0].Sc.Val; v != 12 {
		t.Fatalf("sum = %d, want 12", v)
	}
}

func TestSymbolicForking(t *testing.T) {
	res := run(t, `
func main() {
	var x int = input();
	if x > 10 {
		accept();
	} else {
		reject();
	}
}`, Options{})
	if len(res.States) != 2 {
		t.Fatalf("want 2 states, got %d", len(res.States))
	}
	var acc, rej *State
	for _, st := range res.States {
		switch st.Status {
		case StatusAccepted:
			acc = st
		case StatusRejected:
			rej = st
		}
	}
	if acc == nil || rej == nil {
		t.Fatalf("missing accept/reject states")
	}
	s := solver.Default()
	// The accepting path must force x > 10.
	if r, _ := s.Check(append(acc.Path, expr.Le(expr.Var("in0"), expr.Const(10)))); r != solver.Unsat {
		t.Errorf("accepting path does not force in0 > 10: %v", acc.Path)
	}
	if r, _ := s.Check(append(rej.Path, expr.Gt(expr.Var("in0"), expr.Const(10)))); r != solver.Unsat {
		t.Errorf("rejecting path does not force in0 <= 10: %v", rej.Path)
	}
	if res.Stats.Forks != 1 {
		t.Errorf("forks = %d, want 1", res.Stats.Forks)
	}
}

func TestNestedForkCount(t *testing.T) {
	res := run(t, `
func main() {
	var a int = input();
	var b int = input();
	if a > 0 { } else { }
	if b > 0 { } else { }
	exit();
}`, Options{})
	if len(res.States) != 4 {
		t.Fatalf("want 4 states, got %d", len(res.States))
	}
}

func TestInfeasibleBranchNotForked(t *testing.T) {
	res := run(t, `
func main() {
	var x int = input();
	assume(x > 100);
	if x > 0 {
		accept();
	} else {
		reject();
	}
}`, Options{})
	// x > 100 implies x > 0: only the accepting path exists.
	if len(res.States) != 1 || res.States[0].Status != StatusAccepted {
		t.Fatalf("states: %d, first status %v", len(res.States), res.States[0].Status)
	}
}

func TestAssumeFalseDropsPath(t *testing.T) {
	res := run(t, `
func main() {
	assume(false);
	accept();
}`, Options{})
	if res.States[0].Status != StatusExited {
		t.Fatalf("status %v", res.States[0].Status)
	}
}

func TestRecvSendSymbolic(t *testing.T) {
	res := run(t, `
var msg [3]int;
func main() {
	recv(msg);
	if msg[0] != 7 { reject(); }
	if msg[1] < 0 { reject(); }
	send(msg);
	accept();
}`, Options{})
	var acc *State
	for _, st := range res.States {
		if st.Status == StatusAccepted {
			acc = st
		}
	}
	if acc == nil {
		t.Fatal("no accepting state")
	}
	if len(acc.Sent) != 1 || len(acc.Sent[0].Fields) != 3 {
		t.Fatalf("sent: %+v", acc.Sent)
	}
	if len(acc.MsgVars) != 3 || acc.MsgVars[0] != "m0" {
		t.Fatalf("msg vars: %v", acc.MsgVars)
	}
	// On the accepting path m0 == 7 is forced.
	s := solver.Default()
	if r, _ := s.Check(append(acc.Path, expr.Ne(expr.Var("m0"), expr.Const(7)))); r != solver.Unsat {
		t.Errorf("accepting path does not force m0 == 7")
	}
}

func TestSymbolicLoopBoundedByConstraint(t *testing.T) {
	// A loop whose bound is a symbolic message field, pre-constrained to
	// <= 3: symbolic execution must terminate with one path per bound.
	res := run(t, `
var msg [1]int;
func main() {
	recv(msg);
	if msg[0] < 0 { reject(); }
	if msg[0] > 3 { reject(); }
	var i int = 0;
	while i < msg[0] {
		i = i + 1;
	}
	accept();
}`, Options{})
	acc := res.ByStatus(StatusAccepted)
	if len(acc) != 4 { // msg[0] in {0,1,2,3}
		t.Fatalf("accepting paths = %d, want 4", len(acc))
	}
}

func TestArrayAliasingThroughCalls(t *testing.T) {
	res := run(t, `
var buf [4]int;
var out int;
func fill(arr []int, v int) {
	var i int = 0;
	while i < len(arr) {
		arr[i] = v;
		i = i + 1;
	}
}
func main() {
	fill(buf, 9);
	out = buf[0] + buf[3];
}`, Options{})
	st := res.States[0]
	if st.Status != StatusExited {
		t.Fatalf("status %v err %v", st.Status, st.Err)
	}
	if st.Globals[1].Sc.Val != 18 {
		t.Fatalf("out = %s", st.Globals[1].Sc)
	}
}

func TestAliasingPreservedAcrossFork(t *testing.T) {
	// A function parameter aliasing a global array must stay aliased in
	// both forked children.
	res := run(t, `
var buf [2]int;
var out int;
func poke(arr []int, x int) {
	if x > 0 {
		arr[0] = 1;
	} else {
		arr[0] = 2;
	}
	buf[1] = 5;
	out = arr[0] + buf[1];
}
func main() {
	var x int = input();
	poke(buf, x);
	exit();
}`, Options{})
	if len(res.States) != 2 {
		t.Fatalf("want 2 states, got %d", len(res.States))
	}
	for _, st := range res.States {
		if st.Status != StatusExited {
			t.Fatalf("status %v err %v", st.Status, st.Err)
		}
		v := st.Globals[1].Sc
		if !v.IsConst() || (v.Val != 6 && v.Val != 7) {
			t.Fatalf("out = %s, want 6 or 7", v)
		}
	}
}

func TestConcreteModeMessage(t *testing.T) {
	src := `
var msg [2]int;
func main() {
	recv(msg);
	if msg[0] == 1 && msg[1] > 10 {
		accept();
	}
	reject();
}`
	res := run(t, src, Options{Concrete: true, Message: []int64{1, 11}})
	if res.States[0].Status != StatusAccepted {
		t.Fatalf("status %v err %v", res.States[0].Status, res.States[0].Err)
	}
	res = run(t, src, Options{Concrete: true, Message: []int64{1, 10}})
	if res.States[0].Status != StatusRejected {
		t.Fatalf("status %v", res.States[0].Status)
	}
	if res.Stats.SolverCalls != 0 {
		t.Fatalf("concrete mode must not call the solver")
	}
}

// TestConcreteRunAllocs bounds the allocations of a concrete run of a small
// accepted program with no solver passed. A concrete run never asks a
// solver, so it must not build the default one (verdict cache, intern
// arena, feasible memo), which took over 80 allocations per run.
func TestConcreteRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	unit := compile(t, `
var msg [2]int;
func main() {
	recv(msg);
	if msg[0] == 1 && msg[1] > 10 {
		accept();
	}
	reject();
}`)
	opts := Options{Concrete: true, Message: []int64{1, 11}}
	allocs := testing.AllocsPerRun(100, func() {
		res, err := Run(unit, opts)
		if err != nil || res.States[0].Status != StatusAccepted {
			t.Fatalf("concrete run: %v %v", res, err)
		}
	})
	if allocs > 16 {
		t.Fatalf("concrete run takes %.0f allocations, want at most 16", allocs)
	}
}

func TestConcreteInputQueue(t *testing.T) {
	src := `
var out int;
func main() {
	var a int = input();
	var b int = input();
	out = a * 10 + b;
}`
	res := run(t, src, Options{Concrete: true, Inputs: []int64{4, 2}})
	if res.States[0].Globals[0].Sc.Val != 42 {
		t.Fatalf("out = %s", res.States[0].Globals[0].Sc)
	}
	// Exhausted queue is a runtime error.
	res = run(t, src, Options{Concrete: true, Inputs: []int64{4}})
	if res.States[0].Status != StatusError {
		t.Fatalf("want error, got %v", res.States[0].Status)
	}
}

func TestGlobalConcreteState(t *testing.T) {
	src := `
var phase int;
var msg [1]int;
func main() {
	recv(msg);
	if phase == 2 {
		if msg[0] == 7 { accept(); }
	}
	reject();
}`
	res := run(t, src, Options{GlobalConcrete: map[string]int64{"phase": 2}})
	if got := len(res.ByStatus(StatusAccepted)); got != 1 {
		t.Fatalf("accepted paths = %d, want 1", got)
	}
	res = run(t, src, Options{GlobalConcrete: map[string]int64{"phase": 1}})
	if got := len(res.ByStatus(StatusAccepted)); got != 0 {
		t.Fatalf("accepted paths = %d, want 0", got)
	}
}

func TestGlobalSymbolicState(t *testing.T) {
	src := `
var phase int;
var msg [1]int;
func main() {
	recv(msg);
	if phase == 2 {
		if msg[0] == 7 { accept(); }
	}
	reject();
}`
	res := run(t, src, Options{GlobalSymbolic: []string{"phase"}})
	// With symbolic phase both the phase==2 and phase!=2 worlds exist.
	if got := len(res.ByStatus(StatusAccepted)); got != 1 {
		t.Fatalf("accepted paths = %d, want 1", got)
	}
	acc := res.ByStatus(StatusAccepted)[0]
	found := false
	for _, c := range acc.Path {
		if strings.Contains(c.String(), "state_phase") {
			found = true
		}
	}
	if !found {
		t.Fatalf("accepting path does not mention state_phase: %v", acc.Path)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name, src, wantSub string
	}{
		{"oob-store", `var a [2]int; func main() { a[5] = 1; }`, "out of range"},
		{"oob-read", `var a [2]int; var o int; func main() { o = a[2]; }`, "out of range"},
		{"symbolic-index", `var a [2]int; var o int; func main() { var i int = input(); o = a[i]; }`, "symbolic array index"},
		{"div-zero", `var o int; func main() { o = 1 / 0; }`, "division by zero"},
		{"mod-zero", `var o int; func main() { o = 1 % 0; }`, "remainder by zero"},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			res := run(t, cse.src, Options{})
			st := res.States[0]
			if st.Status != StatusError {
				t.Fatalf("status = %v, want error", st.Status)
			}
			if !strings.Contains(st.Err.Error(), cse.wantSub) {
				t.Fatalf("err %q does not contain %q", st.Err, cse.wantSub)
			}
		})
	}
}

func TestStepBudget(t *testing.T) {
	res := run(t, `
func main() {
	var i int = 0;
	while i >= 0 { i = i + 1; }
}`, Options{MaxSteps: 1000})
	st := res.States[0]
	if st.Status != StatusError || !strings.Contains(st.Err.Error(), "step budget") {
		t.Fatalf("status %v err %v", st.Status, st.Err)
	}
}

func TestEntryErrors(t *testing.T) {
	u := compile(t, `func main() {}`)
	if _, err := Run(u, Options{Entry: "nosuch"}); err == nil {
		t.Fatal("missing entry should error")
	}
	u2 := compile(t, `func main(x int) {}`)
	if _, err := Run(u2, Options{Entry: "main"}); err == nil {
		t.Fatal("entry with params should error")
	}
}

func TestBranchHookPruning(t *testing.T) {
	pruned := 0
	res := run(t, `
func main() {
	var x int = input();
	if x > 0 {
		accept();
	} else {
		reject();
	}
}`, Options{Hooks: Hooks{
		OnBranch: func(st *State, cond *expr.Expr) bool {
			// Prune every false-side branch.
			if cond.Kind == expr.KLe { // !(x > 0) => x <= 0
				pruned++
				return false
			}
			return true
		},
	}})
	if pruned != 1 {
		t.Fatalf("pruned = %d", pruned)
	}
	if got := len(res.ByStatus(StatusPruned)); got != 1 {
		t.Fatalf("pruned states = %d", got)
	}
	if got := len(res.ByStatus(StatusRejected)); got != 0 {
		t.Fatalf("rejected states = %d, want 0 (pruned before reject)", got)
	}
}

func TestOnSendAndOnAcceptHooks(t *testing.T) {
	sends, accepts := 0, 0
	run(t, `
var msg [1]int;
func main() {
	recv(msg);
	send(msg);
	accept();
}`, Options{Hooks: Hooks{
		OnSend:   func(st *State, m SentMessage) { sends++ },
		OnAccept: func(st *State) { accepts++ },
	}})
	if sends != 1 || accepts != 1 {
		t.Fatalf("sends=%d accepts=%d", sends, accepts)
	}
}

// kvServerSrc is the working example from §2.1 of the paper.
const kvServerSrc = `
const DATASIZE = 100;
const READ = 1;
const WRITE = 2;
const NPEERS = 4;
// fields: 0 sender, 1 request, 2 address, 3 value, 4 crc
var msg [5]int;
func main() {
	recv(msg);
	if msg[0] < 0 || msg[0] >= NPEERS { reject(); }
	if msg[4] != msg[0] + msg[1] + msg[2] + msg[3] { reject(); }
	if msg[1] == READ {
		if msg[2] >= DATASIZE { reject(); }
		// Security vulnerability: forgot to check address < 0.
		accept();
	}
	if msg[1] == WRITE {
		if msg[2] >= DATASIZE { reject(); }
		if msg[2] < 0 { reject(); }
		accept();
	}
	reject();
}`

func TestKVServerPathStructure(t *testing.T) {
	res := run(t, kvServerSrc, Options{})
	acc := res.ByStatus(StatusAccepted)
	if len(acc) != 2 {
		t.Fatalf("accepting paths = %d, want 2 (READ and WRITE)", len(acc))
	}
	// The READ accepting path admits a negative address; WRITE does not.
	s := solver.Default()
	negAddr := expr.Lt(expr.Var("m2"), expr.Const(0))
	readNeg, writeNeg := false, false
	for _, st := range acc {
		r, _ := s.Check(append(st.Path, negAddr))
		isRead, _ := s.Check(append(st.Path, expr.Eq(expr.Var("m1"), expr.Const(1))))
		if isRead == solver.Sat && r == solver.Sat {
			readNeg = true
		}
		if isRead == solver.Unsat && r == solver.Sat {
			writeNeg = true
		}
	}
	if !readNeg {
		t.Error("READ path should admit negative addresses (the planted bug)")
	}
	if writeNeg {
		t.Error("WRITE path must not admit negative addresses")
	}
}
