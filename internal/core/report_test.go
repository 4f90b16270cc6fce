package core

import (
	"testing"

	"achilles/internal/expr"
)

func testReport() TrojanReport {
	return TrojanReport{
		Witness:           expr.Gt(expr.Var("m0"), expr.Const(4)),
		Concrete:          []int64{5, 0},
		StateEnv:          expr.Env{"state_round": 2, "state_ballot": 1},
		VerifiedAccept:    true,
		VerifiedNotClient: true,
	}
}

func TestClassLineFormat(t *testing.T) {
	r := testReport()
	want := "m0 > 4 @ [5 0] state{state_ballot=1 state_round=2} verified=true"
	if got := r.ClassLine(); got != want {
		t.Errorf("ClassLine = %q, want %q", got, want)
	}
	r.StateEnv = nil
	r.VerifiedAccept = false
	want = "m0 > 4 @ [5 0] verified=false"
	if got := r.ClassLine(); got != want {
		t.Errorf("ClassLine = %q, want %q", got, want)
	}
}

func TestClassIDIgnoresConcreteExample(t *testing.T) {
	a := testReport()
	b := testReport()
	b.Concrete = []int64{7, 0} // different solver model, same class
	if a.ClassID() != b.ClassID() {
		t.Errorf("ClassID differs across concrete examples: %q vs %q", a.ClassID(), b.ClassID())
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Fingerprint did not change with the concrete example")
	}
}

func TestFingerprintStability(t *testing.T) {
	a := testReport()
	if a.Fingerprint() != testReport().Fingerprint() {
		t.Error("Fingerprint not deterministic")
	}
	if len(a.Fingerprint()) != 16 {
		t.Errorf("Fingerprint length %d, want 16 hex chars", len(a.Fingerprint()))
	}
	// Scheduling-derived fields must not influence the fingerprint.
	b := testReport()
	b.Index = 42
	b.ServerStateID = 99
	b.Elapsed = 1 << 30
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Fingerprint depends on scheduling-derived fields")
	}
	// A verification flip must.
	b.VerifiedAccept = false
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("Fingerprint ignores the verification verdict")
	}
}

func TestCountersKeys(t *testing.T) {
	res := &Result{AcceptingStates: 3, BulkDrops: 7}
	res.Trojans = []TrojanReport{testReport()}
	c := res.Counters()
	for _, key := range []string{"accepting_states", "bulk_drops", "trojan_classes", "solver_queries", "engine_states",
		"witness_hits", "engine_witnessed"} {
		if _, ok := c[key]; !ok {
			t.Errorf("Counters missing key %q", key)
		}
	}
	if c["accepting_states"] != 3 || c["bulk_drops"] != 7 || c["trojan_classes"] != 1 {
		t.Errorf("Counters values wrong: %v", c)
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{
		"":                 ModeOptimized,
		"optimized":        ModeOptimized,
		"no-differentfrom": ModeNoDifferentFrom,
		"no-differentFrom": ModeNoDifferentFrom,
		"a-posteriori":     ModeAPosteriori,
	}
	for name, want := range cases {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	// Round trip: every mode's String parses back to itself.
	for _, m := range []Mode{ModeOptimized, ModeNoDifferentFrom, ModeAPosteriori} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
}
