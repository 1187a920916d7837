package bench

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"fidelius/internal/core"
	"fidelius/internal/migrate"
	"fidelius/internal/sev"
	"fidelius/internal/xen"
)

// Migration table: live pre-copy downtime against the guest's writable
// working set, with the frozen stop-and-copy transfer as the baseline.
// The paper migrates with a plain stop-and-copy SEND/RECEIVE pass
// (Section 4.3.6); the live engine bounds downtime by the final dirty
// residue instead of the whole memory image, so the interesting axis is
// how fast the guest re-dirties pages while the migration streams.

// MigRow is one working-set size evaluated under both modes.
type MigRow struct {
	WSetPages int // pages the guest keeps rewriting

	// Live pre-copy run.
	Rounds       int
	PagesSent    int
	Redirtied    int
	BytesOnWire  uint64
	LiveDowntime uint64 // cycles the source vCPU was frozen
	ForcedFinal  bool

	// Stop-and-copy baseline for the same guest.
	StopCopyDowntime uint64
}

// migGuestPages is the benchmark guest's memory size.
const migGuestPages = 96

// migSweeps is how many passes the guest makes over its working set
// before finishing; enough to keep dirtying memory through several
// pre-copy rounds.
const migSweeps = 40

// migPair boots a source and target protected platform and launches the
// benchmark guest on the source.
func migPair() (src, tgt *core.Fidelius, d *xen.Domain, err error) {
	boot := func() (*core.Fidelius, error) {
		m, err := xen.NewMachine(xen.Config{MemPages: 4096, CacheLines: 1024})
		if err != nil {
			return nil, err
		}
		x, err := xen.New(m)
		if err != nil {
			return nil, err
		}
		return core.Enable(x)
	}
	if src, err = boot(); err != nil {
		return nil, nil, nil, err
	}
	if tgt, err = boot(); err != nil {
		return nil, nil, nil, err
	}
	owner, err := sev.NewOwner()
	if err != nil {
		return nil, nil, nil, err
	}
	platformPub, err := src.M.FW.PublicKey()
	if err != nil {
		return nil, nil, nil, err
	}
	kernel := bytes.Repeat([]byte("MIG-BENCH-KERN!!"), 256)
	b, _, err := core.PrepareGuest(owner, platformPub, kernel, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	d, err = src.LaunchVM("mig-bench", migGuestPages, b)
	if err != nil {
		return nil, nil, nil, err
	}
	return src, tgt, d, nil
}

// migGuest sweeps a working set of wset pages, yielding once per sweep.
// The live runs use the looping variant — a server that never finishes,
// dirtying memory until the final round freezes it — while the
// stop-and-copy baseline runs the bounded variant to completion first.
func migGuest(wset int, loop bool) func(*xen.GuestEnv) error {
	return func(g *xen.GuestEnv) error {
		for s := uint64(0); loop || s < migSweeps; s++ {
			for w := 0; w < wset; w++ {
				if err := g.Write64(0x2000+uint64(w)*0x1000, s); err != nil {
					return err
				}
			}
			g.Halt()
		}
		return nil
	}
}

// runMigration migrates the benchmark guest once and returns the stats.
func runMigration(wset int, stopCopy bool) (*migrate.Stats, error) {
	src, tgt, d, err := migPair()
	if err != nil {
		return nil, err
	}
	src.X.StartVCPU(d, migGuest(wset, !stopCopy))
	if stopCopy {
		// The baseline freezes the finished guest for the whole transfer.
		if err := src.X.Run(d); err != nil {
			return nil, err
		}
	}
	targetPub, err := tgt.M.FW.PublicKey()
	if err != nil {
		return nil, err
	}
	originPub, err := src.M.FW.PublicKey()
	if err != nil {
		return nil, err
	}
	a, b := migrate.Pipe(8)
	defer a.Close() // unblocks the receiver if the sender fails first
	link := &migrate.Link{
		Conn:          a,
		Counter:       src.M.Ctl.Cycles,
		CyclesPerByte: migrate.DefaultCyclesPerByte,
		LatencyCycles: migrate.DefaultLatencyCycles,
	}
	recvErr := make(chan error, 1)
	go func() {
		_, err := tgt.MigrateInLive(b, originPub)
		recvErr <- err
	}()
	stats, err := src.MigrateOutLive(d, targetPub, link,
		migrate.Config{StopAndCopy: stopCopy, AckTimeout: time.Second})
	if err != nil {
		return nil, err
	}
	if err := <-recvErr; err != nil {
		return nil, err
	}
	return stats, nil
}

// MigrationTable runs the live/stop-and-copy comparison across working-set
// sizes. A nil wsets uses the default sweep.
func MigrationTable(wsets []int) ([]MigRow, error) {
	if wsets == nil {
		wsets = []int{2, 4, 8, 16, 32, 48}
	}
	var rows []MigRow
	for _, ws := range wsets {
		live, err := runMigration(ws, false)
		if err != nil {
			return nil, fmt.Errorf("bench migration wset=%d live: %w", ws, err)
		}
		sc, err := runMigration(ws, true)
		if err != nil {
			return nil, fmt.Errorf("bench migration wset=%d stop-copy: %w", ws, err)
		}
		rows = append(rows, MigRow{
			WSetPages:        ws,
			Rounds:           live.Rounds,
			PagesSent:        live.PagesSent,
			Redirtied:        live.Redirtied,
			BytesOnWire:      live.BytesOnWire,
			LiveDowntime:     live.DowntimeCycles,
			ForcedFinal:      live.ForcedFinal,
			StopCopyDowntime: sc.DowntimeCycles,
		})
	}
	return rows, nil
}

// FormatMigrationTable renders the migration comparison.
func FormatMigrationTable(rows []MigRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Migration: pre-copy downtime vs writable working set (%d-page guest)\n", migGuestPages)
	fmt.Fprintf(&b, "%-10s %7s %7s %10s %12s %14s %16s %7s\n",
		"wset(pg)", "rounds", "sent", "redirtied", "wire(bytes)", "live-down(cyc)", "stopcopy-down", "forced")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10d %7d %7d %10d %12d %14d %16d %7v\n",
			r.WSetPages, r.Rounds, r.PagesSent, r.Redirtied, r.BytesOnWire,
			r.LiveDowntime, r.StopCopyDowntime, r.ForcedFinal)
	}
	return b.String()
}
