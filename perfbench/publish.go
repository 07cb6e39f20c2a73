package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/pack"
	"repro/internal/population"
	"repro/internal/providers"
	"repro/internal/toplist"
	"repro/internal/traffic"
)

// publishDays makes the archive hold 300 slots, more than archived's
// 256-entry blob cache, so serve's uniform share misses it.
const publishDays = 100

// publishParents is the layer nesting of a publish pass.
var publishParents = map[string]string{
	"toplist.put":    "engine.emit",
	"toplist.getraw": "pack.write",
}

// runPublish measures the daily-list path (toplistd -live, toplists
// -save): build the world, run the concurrent engine teed into an
// in-memory archive and a DiskStore, then pack the store. Each pass is
// checked against the serial reference run of the same seed.
func runPublish(c *runCtx, rep *report) error {
	s := c.scale(publishDays)
	ref, err := referenceStore(c, s, c.path("reference"))
	if err != nil {
		return err
	}
	want := slotHashes(ref)

	var (
		rec                          *Recorder
		setups, builds, models, gens []float64
		untracedPass, tracedPass     []float64
		p50, p99, alloc, peak        []float64
		daySamples                   int
		engineRun, packWrite         []float64
		stepMS, rankMS               []float64
		stepW, rankW                 float64
	)
	if c.trace {
		rec = newRecorder(1 << 20)
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < c.seconds || (c.trace && len(tracedPass) == 0); i++ {
		traced := c.trace && i%2 == 1
		var prec *Recorder
		if traced {
			prec = rec
		}

		t0 := time.Now()
		w, err := population.Build(s.Population)
		if err != nil {
			return err
		}
		tb := time.Now()
		model := traffic.NewModel(w)
		tm := time.Now()
		opts := providers.DefaultOptions(s.Population.Days, s.ListSize)
		opts.BurnInDays = s.BurnInDays
		g, err := providers.NewGenerator(model, opts)
		if err != nil {
			return err
		}
		tg := time.Now()
		setups = append(setups, tg.Sub(t0).Seconds())
		builds = append(builds, tb.Sub(t0).Seconds())
		models = append(models, tm.Sub(tb).Seconds())
		gens = append(gens, tg.Sub(tm).Seconds())

		eng := engine.New(g, engine.Config{Workers: s.Workers})
		provs := eng.Providers()
		dir := c.path(fmt.Sprintf("publish-%d", i))
		last := toplist.Day(publishDays - 1)
		ds, err := toplist.CreateDiskStore(dir, 0, last)
		if err != nil {
			return err
		}
		if err := ds.SetScale(s.Name); err != nil {
			return err
		}
		if err := ds.Expect(provs...); err != nil {
			return err
		}
		arch := toplist.NewArchive(0, last)
		arch.Expect(provs...)

		var storeSink engine.SnapshotSink = ds
		var packSrc toplist.Source = ds
		if traced {
			storeSink = &tracedStore{ds: ds, rec: rec}
			packSrc = wrapSource(ds, rec, "toplist")
		}
		passSpan := prec.Begin("publish.pass", -1, int64(i))
		runSpan := prec.Begin("engine.run", passSpan, int64(i))
		sink := engine.Tee(arch, storeSink)
		if traced {
			sink = &tracedSink{inner: sink, rec: rec, name: "engine.emit", parent: runSpan}
		}
		clock := &dayClock{inner: sink, last: provs[len(provs)-1]}
		packPath := filepath.Join(dir, "archive.pack")

		runtime.GC() // start every pass from the same heap state
		mem := watchMem()
		t1 := time.Now()
		if err := eng.Run(c.ctx, publishDays, clock); err != nil {
			return err
		}
		t2 := time.Now()
		prec.End(runSpan)
		packSpan := prec.Begin("pack.write", passSpan, int64(i))
		if err := pack.Write(packPath, packSrc); err != nil {
			return err
		}
		t3 := time.Now()
		prec.End(packSpan)
		prec.End(passSpan)
		allocMB, peakMB := mem.end()

		pass := t3.Sub(t1).Seconds()
		if traced {
			tracedPass = append(tracedPass, pass)
			st := eng.Stats()
			engineRun = append(engineRun, t2.Sub(t1).Seconds())
			packWrite = append(packWrite, t3.Sub(t2).Seconds())
			step := st.StepTime.Seconds() * 1e3 / publishDays
			rank := st.RankTime.Seconds() * 1e3 / publishDays
			stepMS, rankMS = append(stepMS, step), append(rankMS, rank)
			stepW, rankW = float64(st.StepWorkers), float64(st.RankWorkers)
		} else {
			untracedPass = append(untracedPass, pass)
			var dayMS []float64
			for k := 1; k < len(clock.done); k++ {
				dayMS = append(dayMS, clock.done[k].Sub(clock.done[k-1]).Seconds()*1e3)
			}
			daySamples += len(dayMS)
			p50 = append(p50, median(dayMS))
			p99 = append(p99, percentile(dayMS, 99))
			alloc = append(alloc, allocMB/publishDays)
			peak = append(peak, peakMB)
		}

		if err := checkPublish(rep, ds, arch, packPath, want, provs); err != nil {
			return err
		}
		if i == 0 {
			bytes, err := storedBytes(dir)
			if err != nil {
				return err
			}
			rep.e2e["stored_bytes_per_entry"] = bytes / entriesOf(arch)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}

	// Each pass is a fresh world, engine and store, and every metric is
	// the median over passes, so one slow instance cannot move it.
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["throughput_per_s"] = publishDays / median(untracedPass)
	rep.e2e["latency_p99_ms"] = median(p99)
	rep.e2e["alloc_mb_per_op"] = median(alloc)
	rep.e2e["heap_peak_mb"] = median(peak)
	rep.notef("op = one published day; medians over %d untraced passes of %d days (%d day intervals; a pass's p99 is its slowest day)",
		len(untracedPass), publishDays, daySamples)
	rep.notef("untraced pass seconds, sorted: %.3f", untracedPass)
	rep.notef("publish_days_per_s = %.4g (days through the last Put and pack.Write), median day interval %.4g ms",
		rep.e2e["throughput_per_s"], median(p50))
	if !c.trace {
		return nil
	}

	L := rep.layer
	L["population.build_s"] = median(builds)
	L["traffic.model_s"] = median(models)
	L["providers.generator_s"] = median(gens)
	L["engine.run_s"] = median(engineRun)
	L["pack.write_s"] = median(packWrite)
	L["engine.step_ms_per_day"] = median(stepMS)
	L["engine.rank_ms_per_day"] = median(rankMS)
	L["engine.step_workers"] = stepW
	L["engine.rank_workers"] = rankW
	nt := float64(len(tracedPass))
	rec.inferParents(publishParents)
	emit := sum(rec.Durations("engine.emit")) / 1e6 / (publishDays * nt)
	L["engine.emit_ms_per_day"] = emit
	stages := map[string]float64{"step": median(stepMS), "rank": median(rankMS), "emit": emit}
	name := "step"
	for k, v := range stages {
		if v > stages[name] {
			name = k
		}
	}
	L["engine.slowest_stage_ms_per_day"] = stages[name]
	rep.notef("slowest engine stage: %s (step %.3g, rank %.3g, emit %.3g ms/day)",
		name, stages["step"], stages["rank"], stages["emit"])
	puts := rec.Durations("toplist.put")
	L["toplist.put_calls"] = float64(len(puts)) / nt
	L["toplist.put_ms"] = median(puts) / 1e6
	L["toplist.write_amp"] = ratio(rec.Counter("toplist.put_written_bytes"), rec.Counter("toplist.put_slot_bytes"))
	getraw := rec.Durations("toplist.getraw")
	L["toplist.getraw_calls"] = float64(len(getraw)) / nt
	L["toplist.getraw_us"] = median(getraw) / 1e3
	overhead := median(tracedPass) - median(untracedPass)
	L["trace.overhead_ms"] = overhead * 1e3
	L["trace.overhead_share"] = ratio(overhead, median(untracedPass))
	layerSummary(rec, rep, nt)
	writeTrace(rec, rep, "publish")
	return nil
}

// checkPublish compares one pass's outputs with the reference: every
// slot's hash, a clean verify sweep, and the pack's bytes against the
// store's. Each slot that fails any check is one failed operation.
func checkPublish(rep *report, ds *toplist.DiskStore, arch *toplist.Archive, packPath string, want map[slotKey]string, provs []string) error {
	slots := int64(len(provs) * publishDays)
	rep.attempted += slots
	if m := arch.Missing(); len(m) > 0 {
		rep.fail(int64(len(m)), "in-memory archive missing %d slots", len(m))
	}
	vr := ds.VerifyReport()
	if len(vr.Corrupt) > 0 || int64(vr.HashVerified) != slots {
		rep.fail(int64(len(vr.Corrupt))+max(0, slots-int64(vr.HashVerified)-int64(len(vr.Corrupt))),
			"verify: %d hash-verified, %d corrupt of %d", vr.HashVerified, len(vr.Corrupt), slots)
	}
	p, err := pack.OpenFile(packPath)
	if err != nil {
		return err
	}
	defer p.Close()
	for _, prov := range provs {
		for d := toplist.Day(0); d < publishDays; d++ {
			k := slotKey{prov, d}
			if got := ds.RawHash(prov, d); got != want[k] {
				rep.fail(1, "%s %s hash %s, reference %s", prov, d, got, want[k])
				continue
			}
			a, err := ds.GetRaw(prov, d)
			if err != nil {
				return err
			}
			b, err := p.GetRaw(prov, d)
			if err != nil {
				return err
			}
			if a == nil || b == nil || !bytes.Equal(a.Data, b.Data) {
				rep.fail(1, "%s %s: pack bytes differ from the store's", prov, d)
			}
		}
	}
	return nil
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
