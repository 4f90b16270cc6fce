package core_test

import (
	"fmt"
	"slices"
	"testing"

	"achilles/internal/core"
	"achilles/internal/lang"
)

// modesAgree runs tgt in all three modes at each parallelism, requires every
// run to report the same Trojan class set, and returns that set.
func modesAgree(t *testing.T, tgt core.Target, js ...int) []string {
	t.Helper()
	var want []string
	first := ""
	for _, mode := range []core.Mode{core.ModeOptimized, core.ModeNoDifferentFrom, core.ModeAPosteriori} {
		for _, j := range js {
			run, err := core.Run(tgt, core.AnalysisOptions{Mode: mode, Parallelism: j})
			if err != nil {
				t.Fatalf("%v -j %d: %v", mode, j, err)
			}
			got := classSet(t, run.Analysis)
			name := fmt.Sprintf("%v -j %d", mode, j)
			if first == "" {
				want, first = got, name
			} else if !slices.Equal(got, want) {
				t.Fatalf("%s reports %q, %s reports %q", name, got, first, want)
			}
		}
	}
	return want
}

// TestServerReadsFieldNoClientSends: the server receives three fields and
// branches on the third, which no client sends. The bulk drop must not read
// the differentFrom matrix at a field it has no column for.
func TestServerReadsFieldNoClientSends(t *testing.T) {
	client := lang.MustCompile(`
var msg [2]int;
func main() {
	msg[0] = input();
	if msg[0] != 1 { msg[0] = 2; }
	msg[1] = input();
	if msg[1] < 0 { msg[1] = 0; }
	if msg[1] > 3 { msg[1] = 3; }
	send(msg);
}`)
	server := lang.MustCompile(`
var msg [3]int;
func main() {
	recv(msg);
	if msg[2] != msg[1] { reject(); }
	if msg[2] > 5 { accept(); }
	reject();
}`)
	classes := modesAgree(t, core.Target{
		Name:    "wide-server",
		Server:  server,
		Clients: []core.ClientProgram{{Name: "c", Unit: client}},
	}, 1, 2)
	if len(classes) == 0 {
		t.Fatal("no Trojan class reported")
	}
}

// TestBulkDropRespectsTiedFields: the server ties msg[0] to msg[1] before it
// branches on msg[1]. Client path 0 dies at msg[1] > 5 through its msg[0]
// bound, not through its msg[1] values, so path 1, whose msg[1] values are
// the same, must not be dropped with it: path 1 can send [7 7].
func TestBulkDropRespectsTiedFields(t *testing.T) {
	client := lang.MustCompile(`
var msg [2]int;
func main() {
	var k int = input();
	var a int = input();
	var b int = input();
	assume(b >= 0);
	assume(b <= 9);
	assume(a >= 0);
	if k == 1 {
		assume(a <= 3);
		msg[0] = a; msg[1] = b;
		send(msg);
	} else {
		assume(a <= 9);
		msg[0] = a; msg[1] = b;
		send(msg);
	}
}`)
	server := lang.MustCompile(`
var msg [2]int;
func main() {
	recv(msg);
	if msg[0] != msg[1] { reject(); }
	if msg[1] > 5 { accept(); }
	reject();
}`)
	tgt := core.Target{
		Name:    "tied-fields",
		Server:  server,
		Clients: []core.ClientProgram{{Name: "c", Unit: client}},
	}
	pc, err := core.ExtractClientPredicate(tgt.Clients, core.ExtractOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Paths) != 2 || pc.DifferentFrom(1, 0, 1) != core.TriNo {
		t.Fatalf("want two client paths with equal msg[1] values, got %d paths, differentFrom[1][0][1] = %v",
			len(pc.Paths), pc.DifferentFrom(1, 0, 1))
	}
	classes := modesAgree(t, tgt, 1, 4)
	if len(classes) == 0 {
		t.Fatal("no Trojan class reported")
	}
}
