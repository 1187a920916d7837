package core

import (
	"crypto/ecdh"
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"fidelius/internal/disk"
	"fidelius/internal/hw"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// GuestBundle is everything the guest owner prepares offline and hands to
// the platform (Section 4.3.2): the encrypted kernel image produced with
// the SEND APIs, the wrapped transport keys Kwrap, the owner's public
// ECDH key and nonce Nvm, and the Kblk-encrypted disk image. Kblk itself
// is embedded in the encrypted kernel image and never visible to the
// hypervisor.
type GuestBundle struct {
	Image    *sev.EncryptedImage
	Kwrap    sev.WrappedKeys
	OwnerPub *ecdh.PublicKey
	Nonce    []byte
	// DiskImage is the Kblk-encrypted disk content, mounted by the
	// backend at bootup.
	DiskImage []byte
}

// KblkOffset is where the owner embeds the 32-byte Kblk inside the first
// kernel page. The guest kernel reads it from its (decrypted) memory at
// boot; the hypervisor only ever sees the encrypted image.
const KblkOffset = 64

// PrepareGuest is the owner-side helper: it builds the kernel image with
// Kblk embedded, encrypts the disk image under Kblk, and runs the SEND
// protocol against the target platform's public key.
func PrepareGuest(owner *sev.Owner, platformPub *ecdh.PublicKey, kernel, diskPlain []byte) (*GuestBundle, [32]byte, error) {
	var kblk [32]byte
	if _, err := io.ReadFull(rand.Reader, kblk[:]); err != nil {
		return nil, kblk, err
	}
	if len(kernel) < KblkOffset+32 {
		padded := make([]byte, KblkOffset+32)
		copy(padded, kernel)
		kernel = padded
	}
	kernel = append([]byte{}, kernel...)
	copy(kernel[KblkOffset:], kblk[:])

	img, kwrap, err := owner.PrepareImage(platformPub, kernel)
	if err != nil {
		return nil, kblk, err
	}
	ic, err := disk.NewImageCipher(kblk)
	if err != nil {
		return nil, kblk, err
	}
	encDisk, err := ic.EncryptImage(diskPlain)
	if err != nil {
		return nil, kblk, err
	}
	return &GuestBundle{
		Image:     img,
		Kwrap:     kwrap,
		OwnerPub:  owner.PublicKey(),
		Nonce:     owner.Nonce(),
		DiskImage: encDisk,
	}, kblk, nil
}

// provisional is a protected VM on its way in: its domain exists and its
// firmware context is started, but its key is not active and Fidelius
// keeps no record of it. Its holder either admits it or scrubs it.
type provisional struct {
	f   *Fidelius
	d   *xen.Domain
	h   sev.Handle
	gek bool // the context holds the owner's customized key
}

// provision creates the domain of an arriving VM and starts its firmware
// context with start; a refused start leaves nothing behind. The caller
// holds the trusted context, as for every provisional method.
func (f *Fidelius) provision(name string, memPages int, start func() (sev.Handle, error)) (*provisional, error) {
	d, err := f.X.CreateDomain(xen.DomainConfig{
		Name:        name,
		MemPages:    memPages,
		SEV:         true,
		ExternalSEV: true,
	})
	if err != nil {
		return nil, err
	}
	h, err := start()
	if err != nil {
		return nil, errors.Join(err, f.X.DestroyDomain(d))
	}
	return &provisional{f: f, d: d, h: h}, nil
}

// receive lands packets in the guest frames from gfn base up with one
// RECEIVE_UPDATE, which re-encrypts them in place under Kvek and fans
// the per-page AES work across the firmware's worker pool.
func (p *provisional) receive(base uint64, pkts []sev.Packet) error {
	pfns := make([]hw.PFN, len(pkts))
	for i := range pkts {
		pfn, ok := p.d.GPAFrame(base + uint64(i))
		if !ok {
			return fmt.Errorf("core: gfn %d unbacked", base+uint64(i))
		}
		pfns[i] = pfn
	}
	return p.f.M.FW.ReceiveUpdatePages(p.h, pfns, pkts)
}

// admit installs the VM's key under its ASID (ACTIVATE) and records the
// VM. A refused ACTIVATE leaves it provisional.
func (p *provisional) admit() error {
	if err := p.f.M.FW.Activate(p.h, p.d.ASID); err != nil {
		return err
	}
	p.f.storeVM(&VMState{Dom: p.d, Handle: p.h, GEKReady: p.gek})
	return nil
}

// scrub erases the firmware context and destroys the domain, which
// scrubs its frames and its PIT and GIT records (Section 4.3.8). The
// context was never activated, so DECOMMISSION alone erases it.
func (p *provisional) scrub() error {
	return errors.Join(p.f.M.FW.Decommission(p.h), p.f.X.DestroyDomain(p.d))
}

// admitVM is the one way a whole protected VM comes in: provision it,
// load its image with load, then admit it. A VM refused at any step is
// scrubbed.
func (f *Fidelius) admitVM(name string, memPages int, start func() (sev.Handle, error), load func(*provisional) error) (*xen.Domain, error) {
	p, err := f.provision(name, memPages, start)
	if err != nil {
		return nil, err
	}
	if err = load(p); err == nil {
		err = p.admit()
	}
	if err != nil {
		return nil, errors.Join(err, p.scrub())
	}
	return p.d, nil
}

// LaunchVM boots a protected VM from an encrypted kernel image (Section
// 4.3.3): RECEIVE_START unwraps the transport keys and creates the guest
// context, RECEIVE_UPDATE re-encrypts each loaded page in place with the
// fresh Kvek, RECEIVE_FINISH verifies the measurement against Mvm, and
// ACTIVATE installs the key. The hypervisor only ever handles ciphertext.
func (f *Fidelius) LaunchVM(name string, memPages int, b *GuestBundle) (*xen.Domain, error) {
	defer f.enterTrusted()()
	sp := f.hub().OpenScope("launch-vm", 0, 0).Attr("name", name)
	defer sp.Close()
	if b.Image.NumPages() > memPages {
		return nil, fmt.Errorf("core: kernel image (%d pages) exceeds VM memory", b.Image.NumPages())
	}
	start := func() (sev.Handle, error) { return f.M.FW.ReceiveStart(b.Kwrap, b.OwnerPub, b.Nonce) }
	return f.admitVM(name, memPages, start, func(p *provisional) error {
		// Kernel pages occupy the top of guest memory, clear of the
		// shared I/O window.
		if err := p.receive(uint64(memPages-b.Image.NumPages()), b.Image.Pages); err != nil {
			return err
		}
		return f.M.FW.ReceiveFinish(p.h, b.Image.Measurement)
	})
}

// KernelBase returns the guest frame where the kernel image of a
// protected VM was loaded.
func (f *Fidelius) KernelBase(d *xen.Domain, b *GuestBundle) uint64 {
	return uint64(d.MemPages - b.Image.NumPages())
}

// SetupIOSession creates the s-dom and r-dom helper contexts for the
// SEV-based I/O protection (Section 4.3.5): both share the guest's Kvek;
// the s-dom is put in sending state and the r-dom in receiving state with
// a common transport key agreed platform-to-itself.
func (f *Fidelius) SetupIOSession(d *xen.Domain) error {
	defer f.enterTrusted()()
	st, _ := f.lookupVM(d.ID)
	if st == nil {
		return fmt.Errorf("core: domain %d is not a Fidelius-protected VM", d.ID)
	}
	if st.IOSessionReady {
		return nil
	}
	selfPub, err := f.M.FW.PublicKey()
	if err != nil {
		return err
	}
	nonce := make([]byte, 16)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return err
	}
	sdom, err := f.M.FW.LaunchHelper(st.Handle)
	if err != nil {
		return err
	}
	kwrap, err := f.M.FW.SendStart(sdom, selfPub, nonce)
	if err != nil {
		return err
	}
	rdom, err := f.M.FW.ReceiveHelperStart(st.Handle, kwrap, selfPub, nonce)
	if err != nil {
		return err
	}
	st.SDom, st.RDom = sdom, rdom
	st.IOSessionReady = true
	return nil
}

// AttachProtectedDisk declares the shared I/O pages in the GIT (on behalf
// of the guest's front-end driver), attaches the block device, and loads
// the owner's encrypted disk image onto it.
func (f *Fidelius) AttachProtectedDisk(d *xen.Domain, dk *disk.Disk, dataPages int, port uint32, b *GuestBundle) (*xen.BlockBackend, error) {
	gk := f.X.Interpose.(*Gatekeeper)
	// Ring page + data pages are shared with dom0 read-write.
	if err := gk.PreSharing(d.ID, xen.Dom0, xen.BlkRingGFN, uint64(dataPages)+1, 0); err != nil {
		return nil, err
	}
	backend, err := f.X.AttachBlockDevice(d, dk, dataPages, port)
	if err != nil {
		return nil, err
	}
	if b != nil {
		for lba := 0; lba*disk.SectorSize < len(b.DiskImage); lba++ {
			if err := dk.WriteSector(uint64(lba), b.DiskImage[lba*disk.SectorSize:]); err != nil {
				return nil, err
			}
		}
	}
	return backend, nil
}

// ShutdownVM terminates a protected VM (Section 4.3.8): DEACTIVATE
// disengages the ASID and uninstalls the key, DECOMMISSION erases the
// firmware contexts (including the I/O helpers), and domain teardown
// scrubs the PIT and GIT through the DomainDestroyed hook.
func (f *Fidelius) ShutdownVM(d *xen.Domain) error {
	defer f.enterTrusted()()
	st, _ := f.lookupVM(d.ID)
	if st == nil {
		return fmt.Errorf("core: domain %d is not a Fidelius-protected VM", d.ID)
	}
	if err := f.M.FW.Deactivate(st.Handle); err != nil {
		return err
	}
	if err := f.M.FW.Decommission(st.Handle); err != nil {
		return err
	}
	if st.IOSessionReady {
		for _, h := range []sev.Handle{st.SDom, st.RDom} {
			if err := f.M.FW.Deactivate(h); err != nil {
				return err
			}
			if err := f.M.FW.Decommission(h); err != nil {
				return err
			}
		}
	}
	return f.X.DestroyDomain(d)
}

// MigrationBundle is an offline VM snapshot in transit: transport packets
// for every guest page plus the measurement, produced by the SEND APIs
// and consumed by RECEIVE on the target (Section 4.3.6).
type MigrationBundle struct {
	Name     string
	MemPages int
	Kwrap    sev.WrappedKeys
	Nonce    []byte
	Packets  []sev.Packet
	Mvm      sev.Measurement
}

// MigrateOut snapshots a (stopped) protected VM for the target platform
// identified by targetPub: the SEND sequence of a live migration with
// every backed page sent in one round.
func (f *Fidelius) MigrateOut(d *xen.Domain, targetPub *ecdh.PublicKey) (*MigrationBundle, error) {
	st, _ := f.lookupVM(d.ID)
	if st == nil {
		return nil, fmt.Errorf("core: domain %d is not a Fidelius-protected VM", d.ID)
	}
	s := &liveSource{f: f, d: d, st: st, targetPub: targetPub}
	kwrap, nonce, err := s.SendStart()
	if err != nil {
		return nil, err
	}
	// One SendPages call for every page: no later call reuses the slab,
	// so the bundle owns its packets' bytes.
	pkts, err := s.SendPages(d.BackedGFNs())
	if err != nil {
		return nil, err
	}
	mvm, err := s.SendFinish()
	if err != nil {
		return nil, err
	}
	return &MigrationBundle{
		Name:     d.Name,
		MemPages: d.MemPages,
		Kwrap:    kwrap,
		Nonce:    nonce,
		Packets:  pkts,
		Mvm:      mvm,
	}, nil
}

// MigrateIn materialises a migrated VM on this platform: a fresh domain
// and Kvek, RECEIVE of every page, measurement verification, activation.
// originPub is the source platform's public key.
func (f *Fidelius) MigrateIn(bundle *MigrationBundle, originPub *ecdh.PublicKey) (*xen.Domain, error) {
	defer f.enterTrusted()()
	start := func() (sev.Handle, error) { return f.M.FW.ReceiveStart(bundle.Kwrap, originPub, bundle.Nonce) }
	return f.admitVM(bundle.Name, bundle.MemPages, start, func(p *provisional) error {
		if err := p.receive(0, bundle.Packets); err != nil {
			return err
		}
		return f.M.FW.ReceiveFinish(p.h, bundle.Mvm)
	})
}

// Attest produces a signed platform quote over the hypervisor-code
// measurement taken at Enable time and the current integrity-tree root
// (zero when the Section 8 engine is off), bound to the verifier's nonce
// (Section 4.3.1's remote attestation).
func (f *Fidelius) Attest(nonce []byte) (*sev.Quote, error) {
	defer f.enterTrusted()()
	var root [32]byte
	if f.M.Ctl.Integ != nil {
		root = f.M.Ctl.Integ.Root()
	}
	return f.M.FW.Attest(nonce, f.HypervisorMeasurement, root)
}

// AttestVM produces a signed quote bound to one protected VM: the
// platform fields of Attest plus the VM's launch measurement held in its
// firmware context. Remote clients verify it against the measurement of
// the image they prepared before provisioning any secret (the serving
// layer's admission handshake).
func (f *Fidelius) AttestVM(d *xen.Domain, nonce []byte) (*sev.Quote, error) {
	defer f.enterTrusted()()
	st, _ := f.lookupVM(d.ID)
	if st == nil {
		return nil, fmt.Errorf("core: domain %d is not a Fidelius-protected VM", d.ID)
	}
	var root [32]byte
	if f.M.Ctl.Integ != nil {
		root = f.M.Ctl.Integ.Root()
	}
	return f.M.FW.AttestGuest(st.Handle, nonce, f.HypervisorMeasurement, root)
}

// PreShare lets trusted tooling declare a sharing on behalf of a guest
// (the guest itself uses the pre_sharing_op hypercall).
func (f *Fidelius) PreShare(initiator, target xen.DomID, gfn, count, flags uint64) error {
	gk := f.X.Interpose.(*Gatekeeper)
	return gk.PreSharing(initiator, target, gfn, count, flags)
}
