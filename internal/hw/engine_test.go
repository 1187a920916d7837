package hw

import (
	"sync"
	"testing"
)

// installedChunks counts the engine's installed slot chunks.
func (e *Engine) installedChunks() int {
	n := 0
	for i := range e.chunks {
		if e.chunks[i].Load() != nil {
			n++
		}
	}
	return n
}

func TestEngineSlotChunks(t *testing.T) {
	e := NewEngine()
	if e.installedChunks() != 0 {
		t.Fatal("a fresh engine holds key RAM")
	}
	asids := []ASID{HostASID, slotChunk - 1, slotChunk, NumSlots - 1}
	for i, a := range asids {
		if e.Installed(a) {
			t.Fatalf("ASID %d installed before any Install", a)
		}
		if _, err := e.Slot(a); err == nil {
			t.Fatalf("Slot(%d) resolved with no key", a)
		}
		if err := e.Install(a, Key{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if e.Keys() != len(asids) || e.installedChunks() != 3 {
		t.Fatalf("Keys %d chunks %d, want %d and 3", e.Keys(), e.installedChunks(), len(asids))
	}
	// Keys in one chunk are independent slots.
	e.Uninstall(slotChunk - 1)
	if e.Installed(slotChunk-1) || !e.Installed(HostASID) {
		t.Fatal("Uninstall reached a neighbouring slot")
	}
	// Uninstalling from a chunk that was never installed is a no-op.
	e.Uninstall(2 * slotChunk)
	if e.Keys() != len(asids)-1 || e.installedChunks() != 3 {
		t.Fatalf("Keys %d chunks %d after uninstalls", e.Keys(), e.installedChunks())
	}
	// Reinstalling over a live key replaces it without a second count.
	if err := e.Install(NumSlots-1, Key{9}); err != nil {
		t.Fatal(err)
	}
	if e.Keys() != len(asids)-1 {
		t.Fatalf("Keys %d after a replacing Install", e.Keys())
	}
}

// TestConcurrentEngineInstall races first Installs into one chunk: every
// ASID must end up with its key, whichever install won the chunk's CAS.
func TestConcurrentEngineInstall(t *testing.T) {
	const workers = 8
	e := NewEngine()
	var start, done sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		done.Add(1)
		go func(w int) {
			defer done.Done()
			start.Wait()
			for a := ASID(w); a < 4*slotChunk; a += workers {
				if err := e.Install(a, Key{byte(a), byte(a >> 8)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	start.Done()
	done.Wait()
	if e.Keys() != 4*slotChunk {
		t.Fatalf("Keys = %d, want %d", e.Keys(), 4*slotChunk)
	}
	for a := ASID(0); a < 4*slotChunk; a++ {
		want, _ := NewPageCipher(Key{byte(a), byte(a >> 8)})
		got, err := e.Slot(a)
		if err != nil {
			t.Fatalf("ASID %d lost its key: %v", a, err)
		}
		var x, y [BlockSize]byte
		got.EncryptBlock(0, x[:])
		want.EncryptBlock(0, y[:])
		if x != y {
			t.Fatalf("ASID %d holds another ASID's key", a)
		}
	}
}
