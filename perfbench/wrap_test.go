package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/listserv"
	"repro/internal/pack"
	"repro/internal/toplist"
)

func testCtx(t *testing.T) *runCtx {
	return &runCtx{ctx: context.Background(), seed: 7, nproc: 2, work: t.TempDir()}
}

// publishOnce runs the concurrent engine into a fresh store at dir,
// through the traced sinks when rec is non-nil, and packs it.
func publishOnce(t *testing.T, c *runCtx, dir string, rec *Recorder) *toplist.DiskStore {
	t.Helper()
	s := c.scale(8)
	_, eng, err := core.NewEngine(s)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := toplist.CreateDiskStore(dir, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Expect(eng.Providers()...); err != nil {
		t.Fatal(err)
	}
	arch := toplist.NewArchive(0, 7)
	var storeSink engine.SnapshotSink = ds
	var packSrc toplist.Source = ds
	if rec != nil {
		storeSink = &tracedStore{ds: ds, rec: rec}
		packSrc = wrapSource(ds, rec, "toplist")
	}
	sink := engine.Tee(arch, storeSink)
	if rec != nil {
		sink = &tracedSink{inner: sink, rec: rec, name: "engine.emit", parent: -1}
	}
	provs := eng.Providers()
	if err := eng.Run(c.ctx, 8, &dayClock{inner: sink, last: provs[len(provs)-1]}); err != nil {
		t.Fatal(err)
	}
	if err := pack.Write(filepath.Join(dir, "archive.pack"), packSrc); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestWrappedPublishIsByteIdentical(t *testing.T) {
	c := testCtx(t)
	rec := newRecorder(1 << 16)
	plain := publishOnce(t, c, c.path("plain"), nil)
	traced := publishOnce(t, c, c.path("traced"), rec)
	a, b := slotHashes(plain), slotHashes(traced)
	if len(a) != 24 {
		t.Fatalf("%d slots, want 24", len(a))
	}
	for k, h := range a {
		if h == "" || b[k] != h {
			t.Fatalf("%v: plain hash %q, traced %q", k, h, b[k])
		}
	}
	pa, err := os.ReadFile(c.path("plain/archive.pack"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := os.ReadFile(c.path("traced/archive.pack"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pa, pb) {
		t.Fatal("packs written through the traced source differ")
	}
	if n := len(rec.Durations("toplist.put")); n != 24 {
		t.Fatalf("traced %d puts, want 24", n)
	}
	if n := len(rec.Durations("toplist.getraw")); n != 24 {
		t.Fatalf("traced %d raw reads during pack.Write, want 24", n)
	}
}

func TestWrappedHandlerServesIdenticalResponses(t *testing.T) {
	c := testCtx(t)
	ds := publishOnce(t, c, c.path("a"), nil)
	rec := newRecorder(1 << 16)
	plain, _ := archiveHandler(ds, nil)
	traced, _ := archiveHandler(wrapSource(ds, rec, "toplist"), rec)
	type probe struct{ path, inm string }
	probes := []probe{{toplist.RemoteManifestPath(), ""}, {"/v1/index", ""}}
	for _, p := range ds.Providers() {
		for d := toplist.Day(0); d < 8; d++ {
			probes = append(probes,
				probe{toplist.RemoteSnapshotPath(p, d), ""},
				probe{toplist.RemoteSnapshotPath(p, d), `"` + ds.RawHash(p, d) + `"`},
				probe{toplist.RemoteSnapshotPath(p, d), `"stale"`},
				probe{listserv.SnapshotPath(p, d, listserv.FormatCSV), ""},
				probe{listserv.SnapshotPath(p, d, listserv.FormatZip), ""})
		}
	}
	for _, pr := range probes {
		var got [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{plain, traced} {
			req := httptest.NewRequest(http.MethodGet, pr.path, nil)
			req.Header.Set("Accept-Encoding", "gzip")
			if pr.inm != "" {
				req.Header.Set("If-None-Match", pr.inm)
			}
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], req)
		}
		a, b := got[0], got[1]
		if a.Code != b.Code || a.Header().Get("ETag") != b.Header().Get("ETag") || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Fatalf("%s (If-None-Match %q): plain %d %s, traced %d %s", pr.path, pr.inm,
				a.Code, a.Header().Get("ETag"), b.Code, b.Header().Get("ETag"))
		}
		if a.Code != http.StatusOK && a.Code != http.StatusNotModified {
			t.Fatalf("%s: status %d", pr.path, a.Code)
		}
	}
	if len(rec.Durations("archived.handler")) == 0 || len(rec.Durations("listserv.handler")) == 0 {
		t.Fatal("traced handler recorded no handler spans")
	}
}

func TestWrappedHandlerRecordsSameMix(t *testing.T) {
	c := testCtx(t)
	ds := publishOnce(t, c, c.path("a"), nil)
	rec := newRecorder(1 << 16)
	plain, _ := archiveHandler(ds, nil)
	traced, _ := archiveHandler(wrapSource(ds, rec, "toplist"), rec)
	a, err := recordMix(c, plain, ds)
	if err != nil {
		t.Fatal(err)
	}
	b, err := recordMix(c, traced, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("plain handler saw %d requests, traced %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: plain %+v, traced %+v", i, a[i], b[i])
		}
	}
	fx := &serveFixture{calls: a}
	if err := fx.expect(plain, ds); err != nil {
		t.Fatal(err)
	}
	// One mirrord day, one collectd day and one copy of 24 slots.
	if want := 1 + mirrordRounds + 3 + collectdPasses + 3 + 2 + 24; len(a) != want {
		t.Fatalf("%d requests, want %d: %s", len(a), want, mixSummary(a))
	}
}

// syncCopy bootstraps a copy of the pack served at url and runs two
// sync rounds, returning the mirror.
func syncCopy(t *testing.T, url, dir string, rt http.RoundTripper) *fleet.Mirror {
	t.Helper()
	peers, err := fleet.NewPeerSet([]string{url},
		fleet.WithPeerRemoteOptions(toplist.WithRemoteHTTPClient(&http.Client{Transport: rt})))
	if err != nil {
		t.Fatal(err)
	}
	store, err := fleet.Bootstrap(context.Background(), dir, peers)
	if err != nil {
		t.Fatal(err)
	}
	m := fleet.NewMirror(store, peers)
	m.SyncOnce(context.Background())
	m.SyncOnce(context.Background())
	return m
}

func TestWrappedFleetCopyMatches(t *testing.T) {
	c := testCtx(t)
	ds := publishOnce(t, c, c.path("src"), nil)
	packPath := c.path("src/archive.pack")
	rec := newRecorder(1 << 16)
	plainSrv, err := startPackServer(packPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plainSrv.close()
	tracedSrv, err := startPackServer(packPath, rec)
	if err != nil {
		t.Fatal(err)
	}
	defer tracedSrv.close()

	plainT, tracedT := &http.Transport{}, &http.Transport{}
	defer plainT.CloseIdleConnections()
	defer tracedT.CloseIdleConnections()
	a := syncCopy(t, plainSrv.srv.URL, c.path("a"), plainT)
	b := syncCopy(t, tracedSrv.srv.URL, c.path("b"),
		&tracedTransport{next: tracedT, rec: rec, copyDir: c.path("b")})
	if a.Copied() != 24 || a.Copied() != b.Copied() || a.NotModified() != b.NotModified() ||
		a.PeerFailures() != b.PeerFailures() || a.Rounds() != b.Rounds() {
		t.Fatalf("fleet counters differ: copied %d/%d, 304s %d/%d, failures %d/%d, rounds %d/%d",
			a.Copied(), b.Copied(), a.NotModified(), b.NotModified(),
			a.PeerFailures(), b.PeerFailures(), a.Rounds(), b.Rounds())
	}
	want := slotHashes(ds)
	for name, m := range map[string]*fleet.Mirror{"plain": a, "traced": b} {
		for k, h := range slotHashes(m.Store()) {
			if want[k] != h {
				t.Fatalf("%s copy %v: hash %q, source %q", name, k, h, want[k])
			}
		}
	}
	if len(rec.Durations("toplist.remote_roundtrip")) == 0 || len(rec.Durations("pack.getraw")) != 24 {
		t.Fatal("traced copy recorded no round trips or pack reads")
	}

	// Renders from the traced copy equal those from the plain one.
	s := c.scale(8)
	for _, id := range []string{"table1", "table5"} {
		ra, err := experiments.Run(c.ctx, experiments.NewEnvFrom(s, a.Store()), id)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := experiments.Run(c.ctx, experiments.NewEnvFrom(s, wrapSource(b.Store(), rec, "toplist")), id)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Render() != rb.Render() {
			t.Fatalf("%s renders differ between the plain and the traced copy", id)
		}
	}
}
