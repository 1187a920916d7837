// Package xsa reproduces the paper's quantitative vulnerability analysis
// (Section 6.2): a corpus of 235 Xen Security Advisories classified by
// affected component and vulnerability class, and the analysis of which
// ones Fidelius thwarts.
//
// The paper reports: of 235 XSAs, 177 concern the hypervisor (the rest are
// QEMU); Fidelius thwarts the 31 privilege-escalation (17.5%) and 22
// information-leakage (12.4%) advisories, 14 (7.9%) are flaws inside the
// guest, and the remainder are denial-of-service, which is outside the
// threat model. The corpus here is synthetic — advisory texts are not
// redistributed — but its ID range and class counts match the paper
// exactly, so the analysis reproduces Table-level numbers.
package xsa

import (
	"fmt"
	"strings"
)

// Component is the part of the stack an advisory affects.
type Component int

// Components.
const (
	Hypervisor Component = iota
	QEMU
)

func (c Component) String() string {
	if c == QEMU {
		return "qemu"
	}
	return "hypervisor"
}

// Class is the vulnerability class.
type Class int

// Vulnerability classes.
const (
	PrivilegeEscalation Class = iota
	InfoLeak
	GuestInternal
	DoS
)

func (c Class) String() string {
	switch c {
	case PrivilegeEscalation:
		return "privilege escalation"
	case InfoLeak:
		return "information leakage"
	case GuestInternal:
		return "guest-internal flaw"
	case DoS:
		return "denial of service"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Advisory is one Xen Security Advisory.
type Advisory struct {
	ID        int
	Component Component
	Class     Class
	// Mechanism names the Fidelius defence that thwarts the advisory
	// (empty if not thwarted).
	Mechanism string
}

// Thwarted reports whether Fidelius blocks exploitation of the advisory:
// hypervisor-component privilege escalations and information leaks.
func (a Advisory) Thwarted() bool {
	return a.Component == Hypervisor &&
		(a.Class == PrivilegeEscalation || a.Class == InfoLeak)
}

// Paper-anchored corpus counts (Section 6.2).
const (
	TotalAdvisories = 235
	HypervisorCount = 177
	QEMUCount       = TotalAdvisories - HypervisorCount // 58
	PrivEscCount    = 31
	InfoLeakCount   = 22
	GuestFlawCount  = 14
	DoSCount        = HypervisorCount - PrivEscCount - InfoLeakCount - GuestFlawCount // 110
)

// mechanisms cycles through the Fidelius defences credited for thwarted
// advisories.
var privEscMechanisms = []string{
	"non-bypassable write protection of page-table-pages (§4.1.1)",
	"PIT policy on NPT updates (§5.2)",
	"privileged instruction monopolisation and checking loops (§4.1.2)",
	"GIT policy on grant-table updates (§5.2)",
	"write-forbidding policy on hypervisor code pages (§5.3)",
}

var infoLeakMechanisms = []string{
	"VMCB and register shadowing with exit-reason masking (§4.2.1)",
	"guest pages unmapped from the hypervisor (§4.3.4)",
	"SEV memory encryption with per-VM keys (§2.1)",
	"para-virtualized I/O encryption (§4.3.5)",
}

// Corpus returns the 235-advisory corpus. The assignment of classes to ID
// positions is deterministic: classes are interleaved through the ID space
// so subsets remain representative.
func Corpus() []Advisory {
	var out []Advisory
	// Fill a class schedule: the hypervisor advisories first (by class
	// quota), then QEMU, then interleave deterministically by striding.
	var schedule []Advisory
	for i := 0; i < PrivEscCount; i++ {
		schedule = append(schedule, Advisory{
			Component: Hypervisor, Class: PrivilegeEscalation,
			Mechanism: privEscMechanisms[i%len(privEscMechanisms)],
		})
	}
	for i := 0; i < InfoLeakCount; i++ {
		schedule = append(schedule, Advisory{
			Component: Hypervisor, Class: InfoLeak,
			Mechanism: infoLeakMechanisms[i%len(infoLeakMechanisms)],
		})
	}
	for i := 0; i < GuestFlawCount; i++ {
		schedule = append(schedule, Advisory{Component: Hypervisor, Class: GuestInternal})
	}
	for i := 0; i < DoSCount; i++ {
		schedule = append(schedule, Advisory{Component: Hypervisor, Class: DoS})
	}
	for i := 0; i < QEMUCount; i++ {
		schedule = append(schedule, Advisory{Component: QEMU, Class: DoS})
	}
	// Deterministic interleave: stride through the schedule with a step
	// coprime to 235 so IDs of each class spread across the range.
	const stride = 89 // coprime to 235
	perm := make([]int, TotalAdvisories)
	pos := 0
	for i := range perm {
		perm[i] = pos
		pos = (pos + stride) % TotalAdvisories
	}
	out = make([]Advisory, TotalAdvisories)
	for i, p := range perm {
		a := schedule[i]
		a.ID = p + 1
		out[p] = a
	}
	return out
}

// Report is the outcome of analysing a corpus.
type Report struct {
	Total            int
	Hypervisor       int
	QEMU             int
	ThwartedPrivEsc  int
	ThwartedInfoLeak int
	GuestFlaws       int
	DoS              int
}

// Analyze classifies a corpus the way Section 6.2 does.
func Analyze(advs []Advisory) Report {
	var r Report
	for _, a := range advs {
		r.Total++
		if a.Component == QEMU {
			r.QEMU++
			continue
		}
		r.Hypervisor++
		switch a.Class {
		case PrivilegeEscalation:
			r.ThwartedPrivEsc++
		case InfoLeak:
			r.ThwartedInfoLeak++
		case GuestInternal:
			r.GuestFlaws++
		case DoS:
			r.DoS++
		}
	}
	return r
}

// Pct formats n as a percentage of the hypervisor-relevant advisories.
func (r Report) Pct(n int) float64 {
	if r.Hypervisor == 0 {
		return 0
	}
	return 100 * float64(n) / float64(r.Hypervisor)
}

// String renders the Section 6.2 analysis.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "XSA quantitative analysis (paper §6.2)\n")
	fmt.Fprintf(&b, "  total advisories:        %d\n", r.Total)
	fmt.Fprintf(&b, "  hypervisor-related:      %d (QEMU: %d, out of scope)\n", r.Hypervisor, r.QEMU)
	fmt.Fprintf(&b, "  thwarted priv. esc.:     %d (%.1f%%)\n", r.ThwartedPrivEsc, r.Pct(r.ThwartedPrivEsc))
	fmt.Fprintf(&b, "  thwarted info leak:      %d (%.1f%%)\n", r.ThwartedInfoLeak, r.Pct(r.ThwartedInfoLeak))
	fmt.Fprintf(&b, "  guest-internal flaws:    %d (%.1f%%)\n", r.GuestFlaws, r.Pct(r.GuestFlaws))
	fmt.Fprintf(&b, "  DoS (out of scope):      %d\n", r.DoS)
	return b.String()
}
