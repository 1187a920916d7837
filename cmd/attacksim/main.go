// attacksim runs the adversary suite of Section 6 against one or both
// platform configurations and prints the outcome matrix.
//
// Usage:
//
//	attacksim [-config xen|fidelius|both] [-trace dir] [-metrics] [-ledger]
//
// -trace writes a Chrome trace_event timeline per attack into the
// directory; -metrics prints each attack's key telemetry counters
// (violations raised, gate crossings) next to its verdict; -ledger
// prints the security audit ledger each attack left behind (record
// count, classes, and whether the hash chain still verifies).
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"

	"fidelius/internal/attack"
)

var (
	traceDir = flag.String("trace", "", "write per-attack Chrome trace_event timelines into this directory")
	metrics  = flag.Bool("metrics", false, "print per-attack telemetry counters")
	ledger   = flag.Bool("ledger", false, "print each attack's audit-ledger summary (records, classes, chain verdict)")
)

// ledgerLine summarizes the audit trail one attack left behind:
// "<n> records [class xN, ...] chain=ok|BROKEN".
func ledgerLine(o attack.Outcome) string {
	byClass := map[string]int{}
	for _, r := range o.Audit {
		byClass[r.Class]++
	}
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	parts := make([]string, 0, len(classes))
	for _, c := range classes {
		parts = append(parts, fmt.Sprintf("%s x%d", c, byClass[c]))
	}
	verdict := "ok"
	if !o.AuditOK {
		verdict = "BROKEN"
	}
	return fmt.Sprintf("%d records [%s] chain=%s", len(o.Audit), strings.Join(parts, ", "), verdict)
}

func run(protected bool) {
	outcomes, err := attack.RunAll(protected, *traceDir)
	if err != nil {
		log.Fatal(err)
	}
	blocked := 0
	for _, o := range outcomes {
		fmt.Println(o)
		if *metrics {
			c := o.Metrics.Counters
			fmt.Printf("%-28s %-9s   violations.total=%d gate.type1=%d gate.type2=%d gate.type3=%d cpu.vmexits=%d\n",
				"", "", c["violations.total"], c["gate.type1"], c["gate.type2"], c["gate.type3"], c["cpu.vmexits"])
		}
		if *ledger {
			fmt.Printf("%-28s %-9s   ledger: %s\n", "", "", ledgerLine(o))
		}
		if !o.Succeeded {
			blocked++
		}
	}
	fmt.Printf("-- %d/%d attacks blocked --\n\n", blocked, len(outcomes))
}

func main() {
	config := flag.String("config", "both", "configuration to attack: xen, fidelius, or both")
	flag.Parse()

	fmt.Printf("%-28s %-9s %-9s %s\n", "attack", "config", "verdict", "detail")
	fmt.Println("--------------------------------------------------------------------------------")
	switch *config {
	case "xen":
		run(false)
	case "fidelius":
		run(true)
	case "both":
		run(false)
		run(true)
	default:
		log.Fatalf("unknown config %q", *config)
	}
}
