package mmu

import (
	"testing"

	"fidelius/internal/hw"
)

func TestDirtyLogBasics(t *testing.T) {
	l := NewDirtyLog(130) // straddles two bitmap words plus a partial one
	if l.Enabled() {
		t.Fatal("new log must start disabled")
	}
	if l.Mark(5) {
		t.Fatal("disabled log must not mark")
	}
	l.Start()
	if !l.Mark(5) || !l.Mark(64) || !l.Mark(129) {
		t.Fatal("in-range marks must record")
	}
	if l.Mark(5) {
		t.Fatal("second mark of the same gfn must report not-new")
	}
	if l.Mark(130) || l.Mark(1<<40) {
		t.Fatal("out-of-range gfn must be ignored")
	}
	got := l.Collect()
	want := []uint64{5, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("collect = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("collect = %v, want %v (ascending)", got, want)
		}
	}
	if len(l.Collect()) != 0 {
		t.Fatal("collect must drain the log")
	}
	if !l.Mark(7) {
		t.Fatal("log must keep recording after a drain")
	}
	l.Stop()
	if l.Mark(8) {
		t.Fatal("stopped log must not mark")
	}
}

func TestDirtyLogNilSafe(t *testing.T) {
	var l *DirtyLog
	l.Start()
	l.Stop()
	if l.Enabled() || l.Mark(1) || l.MarkGPA(4096) {
		t.Fatal("nil log must be inert")
	}
	if l.Collect() != nil {
		t.Fatal("nil log must be empty")
	}
}

func TestDirtyLogMarkGPA(t *testing.T) {
	l := NewDirtyLog(16)
	l.Start()
	if !l.MarkGPA(3*hw.PageSize + 123) {
		t.Fatal("MarkGPA must mark the containing frame")
	}
	if got := l.Collect(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("collect = %v, want [3]", got)
	}
}
