package xsa

import (
	"strings"
	"testing"
)

func TestCorpusSize(t *testing.T) {
	c := Corpus()
	if len(c) != TotalAdvisories {
		t.Fatalf("corpus has %d advisories, want %d", len(c), TotalAdvisories)
	}
	seen := map[int]bool{}
	for _, a := range c {
		if a.ID < 1 || a.ID > TotalAdvisories {
			t.Fatalf("advisory ID %d out of range", a.ID)
		}
		if seen[a.ID] {
			t.Fatalf("duplicate advisory ID %d", a.ID)
		}
		seen[a.ID] = true
	}
}

func TestXSAQuantitative(t *testing.T) {
	// E7: the Section 6.2 numbers.
	r := Analyze(Corpus())
	if r.Total != 235 {
		t.Errorf("total = %d, want 235", r.Total)
	}
	if r.Hypervisor != 177 {
		t.Errorf("hypervisor = %d, want 177", r.Hypervisor)
	}
	if r.QEMU != 58 {
		t.Errorf("qemu = %d, want 58", r.QEMU)
	}
	if r.ThwartedPrivEsc != 31 {
		t.Errorf("thwarted priv esc = %d, want 31", r.ThwartedPrivEsc)
	}
	if r.ThwartedInfoLeak != 22 {
		t.Errorf("thwarted info leak = %d, want 22", r.ThwartedInfoLeak)
	}
	if r.GuestFlaws != 14 {
		t.Errorf("guest flaws = %d, want 14", r.GuestFlaws)
	}
	if n := r.ThwartedPrivEsc + r.ThwartedInfoLeak; n != 53 {
		t.Errorf("thwarted total = %d, want 53", n)
	}
	// Percentages as printed in the paper: 17.5% and 12.4%.
	if got := r.Pct(r.ThwartedPrivEsc); got < 17.4 || got > 17.6 {
		t.Errorf("priv esc pct = %.2f, want ~17.5", got)
	}
	if got := r.Pct(r.ThwartedInfoLeak); got < 12.3 || got > 12.5 {
		t.Errorf("info leak pct = %.2f, want ~12.4", got)
	}
}

func TestThwartedSemantics(t *testing.T) {
	if !(Advisory{Component: Hypervisor, Class: PrivilegeEscalation}).Thwarted() {
		t.Error("hypervisor privilege escalation should be thwarted")
	}
	if !(Advisory{Component: Hypervisor, Class: InfoLeak}).Thwarted() {
		t.Error("hypervisor info leak should be thwarted")
	}
	if (Advisory{Component: Hypervisor, Class: DoS}).Thwarted() {
		t.Error("DoS is out of scope")
	}
	if (Advisory{Component: QEMU, Class: PrivilegeEscalation}).Thwarted() {
		t.Error("QEMU advisories are out of scope")
	}
	if (Advisory{Component: Hypervisor, Class: GuestInternal}).Thwarted() {
		t.Error("guest-internal flaws are out of scope")
	}
}

func TestThwartedHaveMechanisms(t *testing.T) {
	for _, a := range Corpus() {
		if a.Thwarted() && a.Mechanism == "" {
			t.Fatalf("XSA-%d thwarted but lacks a mechanism", a.ID)
		}
		if !a.Thwarted() && a.Mechanism != "" {
			t.Fatalf("XSA-%d not thwarted but credits a mechanism", a.ID)
		}
	}
}

func TestReportString(t *testing.T) {
	s := Analyze(Corpus()).String()
	for _, want := range []string{"235", "177", "17.5%", "12.4%"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestStringers(t *testing.T) {
	if Hypervisor.String() != "hypervisor" || QEMU.String() != "qemu" {
		t.Error("component names")
	}
	for c, want := range map[Class]string{
		PrivilegeEscalation: "privilege escalation",
		InfoLeak:            "information leakage",
		GuestInternal:       "guest-internal flaw",
		DoS:                 "denial of service",
	} {
		if c.String() != want {
			t.Errorf("%d.String() = %q", int(c), c.String())
		}
	}
}
