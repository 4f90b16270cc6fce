package expr

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"weak"
)

// collect runs the collector until cond holds, giving the cleanups it
// queues time to run, and fails t after ten seconds.
func collect(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTableReleasesDeadNodes builds nodes nothing else uses, drops them and
// holds that the table lets them go: its size returns to where it was.
func TestTableReleasesDeadNodes(t *testing.T) {
	const n = 1000
	collect(t, "a settled table", func() bool { return true })
	base := Live()
	nodes := make([]*Expr, n)
	for i := range nodes {
		nodes[i] = Add(Var(fmt.Sprintf("release%d", i)), Const(7))
	}
	if got := Live(); got < 2*n {
		t.Fatalf("the tables hold %d entries with %d new variables and sums live", got, n)
	}
	runtime.KeepAlive(nodes)
	nodes = nil
	collect(t, "the dropped nodes' entries to go", func() bool { return Live() <= base+8 })
}

// TestTableNeverReturnsCollectedNodes drops a tree, collects it and builds
// it again: the rebuilt tree is made of new nodes over the new operands,
// and a cleanup that runs for a structure whose slot holds a live node
// leaves the entry in place.
func TestTableNeverReturnsCollectedNodes(t *testing.T) {
	sum := Add(Var("rebuilt_x"), Const(1000))
	oldSum, oldVar := weak.Make(sum), weak.Make(sum.Args[0])
	sum = nil
	collect(t, "the tree to go", func() bool { return oldSum.Value() == nil && oldVar.Value() == nil })
	again := Add(Var("rebuilt_x"), Const(1000))
	if weak.Make(again) == oldSum || weak.Make(again.Args[0]) == oldVar ||
		again.Args[0] != Var("rebuilt_x") || Add(Var("rebuilt_x"), Const(1000)) != again {
		t.Fatalf("rebuilding a collected tree gave %s over a stale operand", again)
	}
	ops.release(op{again.Args[0].self, again.Args[1].self, uint64(KAdd)})
	if Add(Var("rebuilt_x"), Const(1000)) != again {
		t.Fatal("a stale cleanup removed a live node's entry")
	}
}
