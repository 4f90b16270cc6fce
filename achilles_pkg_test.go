package achilles_test

import (
	"context"
	"testing"

	"achilles"
)

// TestFacadeEndToEnd exercises the public API exactly as the package doc
// advertises it.
func TestFacadeEndToEnd(t *testing.T) {
	server, err := achilles.Compile(`
var m [2]int;
func main() {
	recv(m);
	if m[0] != 1 { reject(); }
	accept();
}`)
	if err != nil {
		t.Fatal(err)
	}
	client := achilles.MustCompile(`
var m [2]int;
func main() {
	var x int = input();
	assume(x >= 0);
	assume(x < 10);
	m[0] = 1;
	m[1] = x;
	send(m);
}`)
	sess, err := achilles.Start(context.Background(), achilles.Target{
		Name:    "facade",
		Server:  server,
		Clients: []achilles.ClientProgram{{Name: "c", Unit: client}},
	}, achilles.WithMode(achilles.ModeOptimized))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Analysis.Trojans) != 1 {
		t.Fatalf("trojans = %d, want 1 (m1 outside [0,10))", len(run.Analysis.Trojans))
	}
	tr := run.Analysis.Trojans[0]
	if tr.Concrete[0] != 1 || (tr.Concrete[1] >= 0 && tr.Concrete[1] < 10) {
		t.Fatalf("bad example %v", tr.Concrete)
	}
	if !tr.VerifiedAccept || !tr.VerifiedNotClient {
		t.Fatalf("verification flags: %+v", tr)
	}
}

func TestCompileError(t *testing.T) {
	if _, err := achilles.Compile("not a program"); err == nil {
		t.Fatal("expected a compile error")
	}
}
