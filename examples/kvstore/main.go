// kvstore: the paper's motivating scenario end to end — a tenant service
// (a small key-value store) runs inside a Fidelius-protected VM and
// persists records through the protected I/O path. The hypervisor, the
// driver domain and the physical disk see only ciphertext; a second VM
// instance recovers the data from the (encrypted) disk after the first is
// shut down.
//
// Persistence across VM generations uses the AES-NI path with Kblk: the
// owner's block key is embedded in the (encrypted) kernel image, so every
// generation booted from the same image can read the disk. The SEV-API
// path's transport key is session-bound and suits scratch I/O instead.
//
// Run with: go run ./examples/kvstore
package main

import (
	"bytes"
	"fmt"
	"log"

	"fidelius"
	"fidelius/internal/kv"
)

const (
	storeLBA     = 8
	storeSectors = 1 + 2*128 // a superblock and two 128-sector log halves
)

func main() {
	plat, err := fidelius.NewPlatform(fidelius.Config{Protected: true})
	if err != nil {
		log.Fatal(err)
	}
	owner, _ := fidelius.NewOwner()
	dk := fidelius.NewDisk(512)

	records := map[string]string{
		"tenant/42/card":   "4111-1111-1111-1111",
		"tenant/42/email":  "alice@example.com",
		"tenant/7/apikey":  "sk-sup3rs3cr3t",
		"tenant/7/balance": "1,250.00",
	}

	// One owner image serves every generation: Kblk lives inside it.
	kernel := bytes.Repeat([]byte("KV-SERVICE-KERN!"), 256)
	bundle, _, err := fidelius.PrepareGuest(owner, plat.PlatformKey(), kernel, nil)
	if err != nil {
		log.Fatal(err)
	}
	openStore := func(plt *fidelius.Platform, vm *fidelius.Domain, g *fidelius.GuestEnv, format bool) (*kv.Store, error) {
		bf, err := fidelius.NewBlockFrontend(g)
		if err != nil {
			return nil, err
		}
		var kblk [32]byte
		kbase := plt.KernelBase(vm, bundle) * fidelius.PageSize
		if err := g.Read(kbase+fidelius.KblkOffset, kblk[:]); err != nil {
			return nil, err
		}
		dev, err := fidelius.NewAESNIFront(g, bf, kblk)
		if err != nil {
			return nil, err
		}
		if format {
			// A brand-new disk must be formatted: through an encrypting
			// front-end, unwritten sectors do not read back as zeros.
			if err := kv.Format(dev, storeLBA, storeSectors); err != nil {
				return nil, err
			}
		}
		return kv.Open(dev, storeLBA, storeSectors)
	}

	// ---- First VM instance: write the records -----------------------
	vm, err := plat.LaunchVM("kv-1", 64, bundle)
	if err != nil {
		log.Fatal(err)
	}
	backend, err := plat.AttachDisk(vm, dk, 2, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	backend.SnoopEnabled = true

	plat.StartVCPU(vm, func(g *fidelius.GuestEnv) error {
		store, err := openStore(plat, vm, g, true)
		if err != nil {
			return err
		}
		for k, v := range records {
			if err := store.Put(k, []byte(v)); err != nil {
				return err
			}
		}
		return g.ConsolePrint(fmt.Sprintf("stored %d records", store.Len()))
	})
	if err := plat.Run(vm); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vm-1 console: %s\n", plat.X.ConsoleLog(vm.ID))
	if err := plat.Shutdown(vm); err != nil {
		log.Fatal(err)
	}

	// ---- What the adversary got -------------------------------------
	leak := false
	for _, v := range records {
		if bytes.Contains(backend.Snoop, []byte(v)) || bytes.Contains(dk.Snapshot(), []byte(v)) {
			leak = true
		}
	}
	fmt.Printf("driver domain / disk saw any tenant record: %v\n", leak)

	// ---- Second VM instance: recover from the encrypted disk --------
	vm2, err := plat.LaunchVM("kv-2", 64, bundle)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := plat.AttachDisk(vm2, dk, 2, 1, nil); err != nil {
		log.Fatal(err)
	}
	plat.StartVCPU(vm2, func(g *fidelius.GuestEnv) error {
		store, err := openStore(plat, vm2, g, false)
		if err != nil {
			return err
		}
		for k, want := range records {
			got, err := store.Get(k)
			if err != nil {
				return fmt.Errorf("recover %q: %w", k, err)
			}
			if string(got) != want {
				return fmt.Errorf("recover %q: got %q", k, got)
			}
		}
		return g.ConsolePrint(fmt.Sprintf("recovered %d records", store.Len()))
	})
	if err := plat.Run(vm2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vm-2 console: %s\n", plat.X.ConsoleLog(vm2.ID))
	fmt.Println("tenant data survived a VM generation without ever being visible outside the guest")
}
