package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/pack"
	"repro/internal/population"
	"repro/internal/toplist"
)

// reproduceDays is the test scale's own horizon. At publishDays the
// archive-only renders cost about 17 s of CPU per pass, which would
// leave one or two passes per run.
const reproduceDays = 35

var reproduceParents = map[string]string{
	"pack.getraw":    "archived.handler",
	"toplist.get":    "experiments.render",
	"toplist.putraw": "fleet.sync",
}

// reproduceServer is the archive a researcher copies: a pack served
// over loopback the way `toplistd -serve-pack` serves it.
type reproduceServer struct {
	p   *pack.Pack
	srv *httptest.Server
}

func (s *reproduceServer) close() error {
	s.srv.Close()
	return s.p.Close()
}

// ready fetches the manifest once: the server is up when it answers.
func (s *reproduceServer) ready() error {
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get(s.srv.URL + toplist.RemoteManifestPath())
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("manifest: status %d", resp.StatusCode)
	}
	return nil
}

func startPackServer(path string, rec *Recorder) (*reproduceServer, error) {
	p, err := pack.OpenFile(path)
	if err != nil {
		return nil, err
	}
	h, _ := archiveHandler(wrapSource(p, rec, "pack"), rec)
	return &reproduceServer{p: p, srv: httptest.NewServer(h)}, nil
}

// setupReps is how many set-ups are timed before each untraced pass.
// One set-up is about a millisecond, so a single one would time the
// host's jitter; timing several before every pass spreads the samples
// over the whole window.
const setupReps = 10

// freshPackServer sets up the pack server reps times, appending each
// set-up's time (open, compose, start, first manifest answered) to
// setups, and keeps the last one running.
func freshPackServer(path string, reps int, setups *[]float64) (*reproduceServer, error) {
	var srv *reproduceServer
	for k := 0; k < reps; k++ {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if srv, err = startPackServer(path, nil); err != nil {
			return nil, err
		}
		if err := srv.ready(); err != nil {
			srv.close()
			return nil, err
		}
		*setups = append(*setups, time.Since(t0).Seconds())
	}
	return srv, nil
}

// reproduceRef is what every pass must reproduce exactly.
type reproduceRef struct {
	scale   core.Scale
	hashes  map[slotKey]string
	renders map[string]string
	order   []string // archive-only IDs, longest reference render first
	entries float64
}

// runReproduce measures a researcher's node copying a served archive
// and regenerating the paper from the copy: fleet bootstrap and sync
// into an empty directory, one steady-state sync round, core.RunFrom,
// and the archive-only experiments.
func runReproduce(c *runCtx, rep *report) error {
	s := c.scale(reproduceDays)
	src, err := referenceStore(c, s, c.path("source"))
	if err != nil {
		return err
	}
	packPath := c.path("source.pack")
	if err := pack.Write(packPath, src); err != nil {
		return err
	}
	ref := &reproduceRef{scale: s, hashes: slotHashes(src), entries: entriesOf(src)}
	results, err := renderAll(c, experiments.NewEnvFrom(s, src), archiveOnlyIDs(), nil, -1)
	if err != nil {
		return err
	}
	ref.renders = make(map[string]string)
	for id, r := range results {
		ref.renders[id] = r.Render()
		ref.order = append(ref.order, id)
	}
	sort.Slice(ref.order, func(a, b int) bool {
		return results[ref.order[a]].Elapsed > results[ref.order[b]].Elapsed
	})

	var rec *Recorder
	if c.trace {
		rec = newRecorder(1 << 20)
		t0 := time.Now()
		if _, err := population.Build(s.Population); err != nil {
			return err
		}
		rep.layer["population.build_s"] = time.Since(t0).Seconds()
	}

	// Every pass copies from a freshly set-up server, so each pass reads
	// the pack through a cold blob cache.
	var untraced, traced []passResult
	var setups, alloc, peak []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < c.seconds || (c.trace && len(traced) == 0); i++ {
		var srv *reproduceServer
		var prec *Recorder
		if c.trace && i%2 == 1 {
			prec = rec
			srv, err = startPackServer(packPath, rec)
		} else {
			runtime.GC() // the last pass's garbage is not set-up's
			srv, err = freshPackServer(packPath, setupReps, &setups)
		}
		if err != nil {
			return err
		}
		runtime.GC() // start every pass from the same heap state
		mem := watchMem()
		pr, err := reproducePass(c, rep, ref, srv.srv.URL, prec, i)
		allocMB, peakMB := mem.end()
		if cerr := srv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if prec != nil {
			traced = append(traced, pr)
			continue
		}
		untraced = append(untraced, pr)
		alloc = append(alloc, allocMB/reproduceDays)
		peak = append(peak, peakMB)
		if i == 0 {
			rep.e2e["stored_bytes_per_entry"] = pr.storedBytes / ref.entries
		}
	}

	total := func(prs []passResult, f func(passResult) float64) []float64 {
		out := make([]float64, len(prs))
		for i, pr := range prs {
			out[i] = f(pr)
		}
		return out
	}
	passS := total(untraced, func(p passResult) float64 { return p.total })
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["throughput_per_s"] = reproduceDays / median(passS)
	rep.e2e["latency_p99_ms"] = percentile(passS, 99) * 1e3
	rep.e2e["alloc_mb_per_op"] = median(alloc)
	rep.e2e["heap_peak_mb"] = median(peak)
	rep.notef("op = one reproduced day; medians over %d untraced passes of %d days; latency is per pass (p99 of %d passes is their maximum)",
		len(passS), reproduceDays, len(passS))
	rep.notef("reproduce_s = %.4g (median pass, empty directory to last checked render)", median(passS))
	if !c.trace {
		return nil
	}

	L := rep.layer
	nt := float64(len(traced))
	rec.inferParents(reproduceParents)
	tracedS := total(traced, func(p passResult) float64 { return p.total })
	overhead := median(tracedS) - median(passS)
	L["trace.overhead_ms"] = overhead * 1e3
	L["trace.overhead_share"] = ratio(overhead, median(passS))
	L["fleet.sync_s"] = median(total(traced, func(p passResult) float64 { return p.sync }))
	L["fleet.steady_round_ms"] = median(total(traced, func(p passResult) float64 { return p.steady })) * 1e3
	L["core.runfrom_s"] = median(total(traced, func(p passResult) float64 { return p.runFrom }))
	L["experiments.run_s"] = median(total(traced, func(p passResult) float64 { return p.run }))
	// The traced phases against the untraced pass: within the tracing
	// overhead when the phases account for the whole pass.
	L["reproduce.phase_gap_ms"] = (L["fleet.sync_s"] + L["core.runfrom_s"] + L["experiments.run_s"] - median(passS)) * 1e3
	for _, pr := range traced {
		L["fleet.slots_copied"] += float64(pr.copied) / nt
		L["fleet.steady_copies"] += float64(pr.steadyCopies)
		L["fleet.peer_failures"] += float64(pr.peerFailures)
		L["toplist.get_distinct"] += float64(pr.distinctGets) / nt
	}
	for _, id := range ref.order {
		L["experiments."+id+"_ms"] = median(total(traced, func(p passResult) float64 { return p.elapsed[id] })) * 1e3
	}
	getraw := rec.Durations("pack.getraw")
	L["pack.getraw_calls"] = float64(len(getraw)) / nt
	L["pack.getraw_us"] = median(getraw) / 1e3
	L["toplist.remote_roundtrip_ms"] = median(rec.Durations("toplist.remote_roundtrip")) / 1e6
	L["toplist.remote_requests"] = rec.Counter("toplist.remote_requests") / nt
	L["toplist.remote_bytes_in"] = rec.Counter("toplist.remote_bytes_in") / nt
	putraw := rec.Durations("toplist.putraw")
	L["toplist.putraw_calls"] = float64(len(putraw)) / nt
	L["toplist.putraw_ms"] = median(putraw) / 1e6
	L["toplist.write_amp"] = ratio(rec.Counter("toplist.putraw_written_bytes"), rec.Counter("toplist.putraw_slot_bytes"))
	gets := rec.Durations("toplist.get")
	L["toplist.get_calls"] = float64(len(gets)) / nt
	L["toplist.get_ms"] = median(gets) / 1e6
	rep.notef("untraced phases: sync %.3fs + runfrom %.3fs + experiments %.3fs",
		median(total(untraced, func(p passResult) float64 { return p.sync })),
		median(total(untraced, func(p passResult) float64 { return p.runFrom })),
		median(total(untraced, func(p passResult) float64 { return p.run })))
	rep.notef("traced phases: sync %.3fs + runfrom %.3fs + experiments %.3fs vs untraced reproduce_s %.3fs (gap %.1f ms, tracing overhead %.1f ms)",
		L["fleet.sync_s"], L["core.runfrom_s"], L["experiments.run_s"], median(passS),
		L["reproduce.phase_gap_ms"], L["trace.overhead_ms"])
	layerSummary(rec, rep, nt)
	writeTrace(rec, rep, "reproduce")
	return nil
}

type passResult struct {
	total, sync, steady, runFrom, run  float64 // seconds
	copied, steadyCopies, peerFailures int64
	distinctGets                       int
	storedBytes                        float64
	elapsed                            map[string]float64 // seconds per experiment
}

// reproducePass copies the archive served at url into an empty
// directory and regenerates the archive-only experiments from the
// copy, checking the copied hashes and every render.
func reproducePass(c *runCtx, rep *report, ref *reproduceRef, url string, rec *Recorder, i int) (passResult, error) {
	var pr passResult
	dir := c.path(fmt.Sprintf("copy-%d", i))
	defer os.RemoveAll(dir)
	transport := &http.Transport{MaxIdleConnsPerHost: c.nproc}
	defer transport.CloseIdleConnections()
	var rt http.RoundTripper = transport
	var tt *tracedTransport
	if rec != nil {
		tt = &tracedTransport{next: transport, rec: rec, copyDir: dir}
		rt = tt
	}

	t0 := time.Now()
	passSpan := rec.Begin("reproduce.pass", -1, int64(i))
	syncSpan := rec.Begin("fleet.sync", passSpan, int64(i))
	ctx := withSpan(c.ctx, syncSpan)
	peers, err := fleet.NewPeerSet([]string{url},
		fleet.WithPeerRemoteOptions(toplist.WithRemoteHTTPClient(&http.Client{Transport: rt})))
	if err != nil {
		return pr, err
	}
	store, err := fleet.Bootstrap(ctx, dir, peers)
	if err != nil {
		return pr, err
	}
	m := fleet.NewMirror(store, peers)
	m.SyncOnce(ctx)
	if tt != nil {
		tt.closeGap(time.Now())
	}
	pr.copied = m.Copied()
	t1 := time.Now()
	m.SyncOnce(ctx)
	t2 := time.Now()
	rec.End(syncSpan)
	pr.steadyCopies = m.Copied() - pr.copied
	pr.peerFailures = m.PeerFailures()
	// The copy is checked and measured between the phases, outside
	// their times.
	if err := checkCopy(rep, ref, store, &pr, dir); err != nil {
		return pr, err
	}

	t2b := time.Now()
	rfSpan := rec.Begin("core.runfrom", passSpan, int64(i))
	copySrc := wrapSource(store, rec, "toplist")
	env := experiments.NewEnvFrom(ref.scale, copySrc)
	if _, err := env.Study(); err != nil {
		return pr, err
	}
	rec.End(rfSpan)
	t3 := time.Now()
	runSpan := rec.Begin("experiments.run", passSpan, int64(i))
	results, err := renderAll(c, env, ref.order, rec, runSpan)
	if err != nil {
		return pr, err
	}
	rep.attempted += int64(len(ref.order))
	pr.elapsed = make(map[string]float64)
	for _, id := range ref.order {
		res := results[id]
		if res.Render() != ref.renders[id] {
			rep.fail(1, "%s: render differs from the source archive's", id)
		}
		pr.elapsed[id] = res.Elapsed.Seconds()
	}
	t4 := time.Now()
	rec.End(runSpan)
	rec.End(passSpan)
	if ts, ok := copySrc.(tracedTimingSource); ok {
		pr.distinctGets = ts.distinctGets()
	}
	pr.sync = t2.Sub(t0).Seconds()
	pr.steady = t2.Sub(t1).Seconds()
	pr.runFrom = t3.Sub(t2b).Seconds()
	pr.run = t4.Sub(t3).Seconds()
	pr.total = pr.sync + pr.runFrom + pr.run
	return pr, nil
}

// checkCopy checks the copied slots against the source's hashes and the
// fleet counters of the pass, and measures the copy's stored bytes.
func checkCopy(rep *report, ref *reproduceRef, store *toplist.DiskStore, pr *passResult, dir string) error {
	slots := int64(len(ref.hashes))
	rep.attempted += slots
	bad := int64(0)
	for k, h := range ref.hashes {
		if store.RawHash(k.provider, k.day) != h {
			bad++
		}
	}
	if bad > 0 || pr.copied != slots || pr.steadyCopies != 0 || pr.peerFailures != 0 {
		rep.fail(max(bad, 1), "copy: %d hash mismatches, %d copied of %d, %d steady copies, %d peer failures",
			bad, pr.copied, slots, pr.steadyCopies, pr.peerFailures)
	}
	var err error
	pr.storedBytes, err = storedBytes(dir)
	return err
}

// renderAll runs the experiments ids on nproc workers, claiming them
// in the given order, as the experiments pool does.
func renderAll(c *runCtx, env *experiments.Env, ids []string, rec *Recorder, parent int32) (map[string]*experiments.Result, error) {
	ctx, cancel := context.WithCancel(c.ctx)
	defer cancel()
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		next     int
		out      = make(map[string]*experiments.Result, len(ids))
		firstErr error
	)
	for w := 0; w < c.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(ids) || firstErr != nil {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()
				h := rec.Begin("experiments.render", parent, int64(k))
				res, err := experiments.Run(ctx, env, ids[k])
				rec.End(h)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", ids[k], err)
					cancel()
				}
				out[ids[k]] = res
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstErr
}
