// pbft-audit rediscovers the PBFT MAC attack (§6.2/§6.3) and measures its
// impact on a concrete replica cluster.
//
// Run with: go run ./examples/pbft-audit
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"achilles"
	"achilles/internal/protocols/pbft"
)

func main() {
	sess, err := achilles.Start(context.Background(), pbft.NewTarget())
	if err != nil {
		log.Fatal(err)
	}
	run, err := sess.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("analysis finished in %v (the paper: \"a few seconds\")\n",
		run.Total().Round(time.Millisecond))
	fmt.Printf("Trojan classes: %d, one per accepting replica path\n", len(run.Analysis.Trojans))
	for _, tr := range run.Analysis.Trojans {
		fmt.Printf("  example request with corrupted authenticator: %v\n", tr.Concrete)
	}

	// Impact on a live 4-replica cluster: Trojan requests force the
	// expensive recovery protocol and collapse correct-client goodput.
	fmt.Println("\nMAC-attack impact on the concrete cluster (goodput = committed/1000 cost units):")
	for _, every := range []int{0, 20, 10, 5, 2} {
		m := pbft.NewCluster(1, 4).AttackWorkload(3000, every)
		rate := "none"
		if every > 0 {
			rate = fmt.Sprintf("1/%d Trojan", every)
		}
		fmt.Printf("  attack %-12s goodput %7.2f, recoveries %4d\n", rate, m.Goodput(), m.Recoveries)
	}

	// The fix (Clement et al.): signed requests make corruption
	// attributable, so Trojans are dropped cheaply at the primary.
	fixed := pbft.NewCluster(1, 4)
	fixed.UseSignatures = true
	m := fixed.AttackWorkload(3000, 2)
	fmt.Printf("  with the fix:  goodput %7.2f under 1/2 attack (%d dropped, %d recoveries)\n",
		m.Goodput(), m.Dropped, m.Recoveries)
}
