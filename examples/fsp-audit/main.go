// fsp-audit runs the full FSP evaluation of §6.2/§6.3: the accuracy
// experiment against the 80 known Trojan classes and the glob-aware
// analysis that additionally surfaces the wildcard bug.
//
// Run with: go run ./examples/fsp-audit
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"achilles"
	"achilles/internal/protocols/fsp"
)

func main() {
	// Accuracy experiment: clients without glob handling (the paper's
	// annotated setup) — exactly the 80 mismatched-length classes exist.
	run := analyse(fsp.NewTarget(false))
	fmt.Printf("accuracy experiment: %d client paths, %d/%d known Trojan classes, 0 false positives, %v\n",
		len(run.Clients.Paths), len(run.Analysis.Trojans), fsp.KnownTrojanClasses(),
		run.Total().Round(time.Millisecond))
	for _, tr := range run.Analysis.Trojans[:3] {
		cmd, rep, act, _ := fsp.ClassOf(tr.Concrete)
		fmt.Printf("  e.g. cmd=%d bb_len=%d actual-path-len=%d: %v\n", cmd, rep, act, tr.Concrete)
	}

	// Wildcard experiment: glob-aware clients never send a literal '*';
	// the server accepts it — extra Trojan classes appear on the
	// valid-length paths.
	wrun := analyse(fsp.NewTarget(true))
	wildcards := 0
	for _, tr := range wrun.Analysis.Trojans {
		if _, rep, act, _ := fsp.ClassOf(tr.Concrete); act == rep {
			wildcards++
		}
	}
	fmt.Printf("\nwildcard experiment: %d total classes, %d involve a literal '*'\n",
		len(wrun.Analysis.Trojans), wildcards)
	for _, tr := range wrun.Analysis.Trojans {
		if _, rep, act, _ := fsp.ClassOf(tr.Concrete); act == rep {
			fmt.Printf("  e.g. %v (path bytes %q)\n", tr.Concrete, pathOf(tr.Concrete))
			break
		}
	}
}

// analyse runs both Achilles phases on a target as a session and waits for
// the result.
func analyse(t achilles.Target) *achilles.RunResult {
	sess, err := achilles.Start(context.Background(), t)
	if err != nil {
		log.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil {
		log.Fatal(err)
	}
	return run
}

func pathOf(msg []int64) string {
	var b []byte
	for i := 0; i < fsp.MaxPath; i++ {
		if msg[fsp.FieldBuf+i] == 0 {
			break
		}
		b = append(b, byte(msg[fsp.FieldBuf+i]))
	}
	return string(b)
}
