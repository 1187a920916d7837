package main

import (
	"fmt"
	"math"
	"strings"

	"fidelius/internal/bench"
	"fidelius/internal/core"
	"fidelius/internal/disk"
	"fidelius/internal/telemetry"
	"fidelius/internal/workload"
	"fidelius/internal/xen"
)

// The paper-eval workload: the paper's own Section 7 output, a closed batch
// with no randomness. One pass runs Figure 5 (11 SPEC profiles x 3
// configurations, 8 iterations each), Figure 6 (13 PARSEC profiles), Table
// 3 (4 fio patterns x 2 configurations, 320 sectors) and the three §7.2
// micro-benchmarks. The benchmark boots each bench.Platform itself, so
// boot is set-up and workload.Run is the timed call.

const (
	figIters       = 8
	fioSectors     = 320
	fioRegion      = 192 // sectors, as internal/bench sizes Table 3
	fioDomainPages = 64
	fioDataPages   = 2
	fioPort        = 1
)

// fioKey is the block key of the protected fio runs; the cost model does
// not depend on its bytes.
var fioKey = [32]byte{'f', 'i', 'o'}

var fioPatterns = []workload.FioPattern{workload.RandRead, workload.SeqRead, workload.RandWrite, workload.SeqWrite}

// figProfiles returns the Fig 5 and Fig 6 profiles a pass runs: both
// suites, or mcf, the memory-bound outlier, alone in quick mode.
func figProfiles(o options) (spec, parsec []workload.Profile) {
	if o.quick {
		mcf, _ := workload.ByName("mcf")
		return []workload.Profile{mcf}, nil
	}
	return workload.SPEC(), workload.PARSEC()
}

// paperChromeTrace is the boot index of mcf's run under the fidelius
// configuration: gates, shadowing and memory traffic on one small
// timeline.
func paperChromeTrace(o options) int {
	spec, _ := figProfiles(o)
	for i, p := range spec {
		if p.Name == "mcf" {
			return i*len(bench.Configs) + 1 // Configs[1] is fidelius
		}
	}
	return 0
}

func paperPass(r *recorder, o options) error {
	spec, parsec := figProfiles(o)
	rows5, err := figure(r, "fig5", spec)
	if err != nil {
		return err
	}
	rows6, err := figure(r, "fig6", parsec)
	if err != nil {
		return err
	}
	for _, pat := range fioPatterns {
		base, err := fio(r, bench.ConfigXen, pat)
		if err != nil {
			return err
		}
		fid, err := fio(r, bench.ConfigFidelius, pat)
		if err != nil {
			return err
		}
		r.model["table3."+pat.String()] = fid.Slowdown(base)
	}

	var gates bench.MicroGates
	var shadow bench.MicroShadow
	var iocrypt bench.MicroIOCrypt
	r.attempted += 3
	err = r.timeRun("micro", nil, func() (err error) {
		if gates, err = bench.MicroBenchGates(1000); err != nil {
			return err
		}
		if shadow, err = bench.MicroBenchShadow(500); err != nil {
			return err
		}
		iocrypt = bench.MicroBenchIOCrypt(512 << 20)
		return nil
	})
	if err != nil {
		r.failed += 3
		return fmt.Errorf("micro-benchmarks: %w", err)
	}
	if gates.Gate1 != 306 || gates.Gate2 != 16 || gates.Gate3 != 339 {
		r.gate("gate costs %d/%d/%d, want exactly 306/16/339", gates.Gate1, gates.Gate2, gates.Gate3)
	}

	m := r.model
	m["paper.gate1_cyc"] = float64(gates.Gate1)
	m["paper.gate2_cyc"] = float64(gates.Gate2)
	m["paper.gate3_cyc"] = float64(gates.Gate3)
	m["paper.shadow_cyc"] = float64(shadow.Shadow)
	m["paper.aesni_pct"] = iocrypt.AESNISlowdown
	m["paper.sev_pct"] = iocrypt.SEVSlowdown
	m["micro.software_x"] = iocrypt.SoftwareRatio
	for _, row := range rows5 {
		if row.Name == "mcf" || row.Name == "omnetpp" {
			m["paper.fig5_"+row.Name+"_enc_pct"] = row.Enc
		}
	}
	if !o.quick {
		m["paper.fig5_enc_pct"] = bench.Average(rows5).Enc
	}
	if len(rows6) > 0 {
		avg := bench.Average(rows6)
		m["paper.fig6_fid_pct"] = avg.Fid
		m["paper.fig6_enc_pct"] = avg.Enc
		for _, row := range rows6 {
			if row.Name == "canneal" {
				m["paper.fig6_canneal_enc_pct"] = row.Enc
			}
		}
	}
	for _, pat := range fioPatterns {
		m["paper.table3_"+pat.String()+"_pct"] = m["table3."+pat.String()]
	}
	var errSum float64
	var n int
	for _, p := range paperValues {
		if v, ok := m[p.Key]; ok {
			errSum += math.Abs(v-p.Paper) / p.Paper
			n++
		}
	}
	m["paper_err_pct"] = 100 * errSum / float64(n)
	return nil
}

// figure runs one figure's profiles under the three configurations and
// records its rows the way bench.Figure5/Figure6 build them.
func figure(r *recorder, fig string, profiles []workload.Profile) ([]bench.FigRow, error) {
	var rows []bench.FigRow
	for _, prof := range profiles {
		var res [3]workload.Result
		var fid telemetry.Snapshot
		for i, cfg := range bench.Configs {
			var p *bench.Platform
			if err := r.timeSetup("boot", func() (err error) {
				p, err = bench.NewPlatform(cfg, workload.GuestMemPages)
				return err
			}); err != nil {
				return nil, fmt.Errorf("%s %s/%s boot: %w", fig, prof.Name, cfg, err)
			}
			hub := p.X.M.Ctl.Telem
			r.attach(hub)
			r.attempted++
			if err := r.timeRun("workload", []*telemetry.Hub{hub}, func() (err error) {
				res[i], err = workload.Run(p.X, p.D, prof, figIters)
				return err
			}); err != nil {
				r.failed++
				return nil, fmt.Errorf("%s %s/%s: %w", fig, prof.Name, cfg, err)
			}
			if cfg == bench.ConfigFidelius {
				fid = hub.Reg.Snapshot()
			}
			if _, err := r.detach(hub); err != nil {
				return nil, err
			}
		}
		row := bench.FigRow{
			Name:     prof.Name,
			Fid:      res[1].Overhead(res[0]),
			Enc:      res[2].Overhead(res[0]),
			PaperFid: prof.PaperFid,
			PaperEnc: prof.PaperEnc,
			Gate1:    fid.Counters["gate.type1"],
			Gate2:    fid.Counters["gate.type2"],
			Gate3:    fid.Counters["gate.type3"],
			VMExits:  fid.Counters["cpu.vmexits"],
		}
		recordRow(r.model, fig, row)
		rows = append(rows, row)
	}
	return rows, nil
}

// recordRow stores a figure row under fig.<name>.<field>, the keys the
// library check compares.
func recordRow(m map[string]float64, fig string, row bench.FigRow) {
	k := fig + "." + row.Name + "."
	m[k+"fid"] = row.Fid
	m[k+"enc"] = row.Enc
	m[k+"gate1"] = float64(row.Gate1)
	m[k+"gate2"] = float64(row.Gate2)
	m[k+"gate3"] = float64(row.Gate3)
	m[k+"vmexits"] = float64(row.VMExits)
}

// fio runs one Table 3 pattern under one configuration, as bench.Table3
// does, with the boot and disk attachment as set-up.
func fio(r *recorder, cfg string, pat workload.FioPattern) (workload.FioResult, error) {
	var p *bench.Platform
	err := r.timeSetup("boot", func() (err error) {
		p, err = bench.NewPlatform(cfg, fioDomainPages)
		return err
	})
	if err == nil {
		r.attach(p.X.M.Ctl.Telem)
		err = r.timeSetup("fio-setup", func() (err error) {
			dk := disk.New(fioRegion + 64)
			if cfg == bench.ConfigXen {
				_, err = p.X.AttachBlockDevice(p.D, dk, fioDataPages, fioPort)
			} else {
				_, err = p.F.AttachProtectedDisk(p.D, dk, fioDataPages, fioPort, nil)
			}
			if err != nil {
				return err
			}
			return p.X.WriteStartInfo(p.D)
		})
	}
	if err != nil {
		return workload.FioResult{}, fmt.Errorf("fio %v/%s set-up: %w", pat, cfg, err)
	}
	open := func(g *xen.GuestEnv) (workload.BlockDev, error) {
		bf, err := xen.NewBlockFrontend(g)
		if err != nil {
			return nil, err
		}
		if cfg == bench.ConfigXen {
			return bf, nil
		}
		return core.NewAESNIFront(g, bf, fioKey)
	}
	hub := p.X.M.Ctl.Telem
	var res workload.FioResult
	r.attempted++
	if err := r.timeRun("fio", []*telemetry.Hub{hub}, func() error {
		p.X.StartVCPU(p.D, workload.FioGuest(pat, fioSectors, fioRegion, open, &res))
		return p.X.Run(p.D)
	}); err != nil {
		r.failed++
		return res, fmt.Errorf("fio %v/%s: %w", pat, cfg, err)
	}
	_, err = r.detach(hub)
	return res, err
}

// checkPaperLibrary is the paper-eval correctness gate against the
// library: the first pass's Figure 5/6 rows must equal bench.Figure5(8)
// and bench.Figure6(8), and its Table 3 slowdowns bench.Table3(320).
func checkPaperLibrary(first *recorder, o options) error {
	fig5, err := bench.Figure5(figIters)
	if err != nil {
		return err
	}
	var fig6 []bench.FigRow
	if !o.quick {
		if fig6, err = bench.Figure6(figIters); err != nil {
			return err
		}
	}
	t3, err := bench.Table3(fioSectors)
	if err != nil {
		return err
	}
	want := map[string]float64{}
	for _, row := range fig5 {
		recordRow(want, "fig5", row)
	}
	for _, row := range fig6 {
		recordRow(want, "fig6", row)
	}
	for _, row := range t3 {
		want["table3."+row.Pattern.String()] = row.Slowdown
	}
	for k, v := range first.model {
		if !strings.HasPrefix(k, "fig5.") && !strings.HasPrefix(k, "fig6.") && !strings.HasPrefix(k, "table3.") {
			continue
		}
		if w, ok := want[k]; !ok || w != v {
			first.gate("%s = %v, but the library reports %v", k, v, w)
		}
	}
	if !o.quick {
		for k := range want {
			if _, ok := first.model[k]; !ok {
				first.gate("the pass has no %s, which the library reports", k)
			}
		}
	}
	return nil
}
