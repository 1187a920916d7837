// Attack demo: the full adversary suite of the paper's security analysis
// (Section 6), run side by side against plain Xen with SEV guests and
// against Fidelius.
//
// Run with: go run ./examples/attackdemo
package main

import (
	"fmt"
	"log"

	"fidelius/internal/attack"
)

func main() {
	fmt.Println("Attack matrix — every attack against both configurations (§6)")
	fmt.Println()
	fmt.Printf("%-28s %-9s %-9s %s\n", "attack", "config", "verdict", "detail")
	fmt.Println("--------------------------------------------------------------------------------")

	baseline, err := attack.RunAll(false, "")
	if err != nil {
		log.Fatal(err)
	}
	protected, err := attack.RunAll(true, "")
	if err != nil {
		log.Fatal(err)
	}
	for i := range baseline {
		fmt.Println(baseline[i])
		fmt.Println(protected[i])
	}

	var blockedBase, blockedFid int
	for i := range baseline {
		if !baseline[i].Succeeded {
			blockedBase++
		}
		if !protected[i].Succeeded {
			blockedFid++
		}
	}
	fmt.Println()
	fmt.Printf("plain xen+sev : %d/%d attacks blocked (SEV hardware alone)\n", blockedBase, len(baseline))
	fmt.Printf("fidelius      : %d/%d attacks blocked\n", blockedFid, len(protected))
	fmt.Println()
	fmt.Println("Attack descriptions:")
	for _, a := range attack.All() {
		fmt.Printf("  %-28s %s\n", a.Name, a.Description)
	}
}
