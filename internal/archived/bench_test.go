package archived

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	servecore "repro/internal/serve"
	"repro/internal/toplist"
)

// BenchmarkArchiveServe is the HTTP load benchmark gating the serving
// fast path (the req/sec analog of BenchmarkEngine's days/sec): a real
// httptest server over a DiskStore, measured end to end through the
// client socket. Variants pin the claim the fast path makes:
//
//   - raw/hot:      fast path, blob cache holding the working set — the
//     steady state of a daemon serving a mirrored archive.
//   - raw/cold:     fast path with an effectively disabled blob cache,
//     so every request is a store read + hash check.
//   - encode/hot:   fallback path (WithoutRawFastPath), warm blob
//     cache — the pre-fast-path steady state.
//   - encode/cold:  fallback path, every request re-runs WriteCSV+gzip
//     over the decoded list (DiskStore decode cache is warm — this is
//     the encoder cost alone, the exact work the raw path deletes).
//   - raw/parallel: fast path, hot cache, concurrent readers.
//   - raw/middleware: raw/hot behind the full production middleware
//     chain (metrics, access log, limiter, recovery) — CI diffs it
//     against raw/hot to gate the chain's overhead at <5% req/sec.
//
// The acceptance bar is raw ≥ 2x req/sec and ≤ 1/4 B/op of encode on
// warm DiskStore-backed serving — compare the cold variants, where
// each request does per-request work on both paths; the hot variants
// both serve from the blob cache and differ little by construction.
func BenchmarkArchiveServe(b *testing.B) {
	middleware := func(h http.Handler) http.Handler {
		m := servecore.NewMetrics()
		return servecore.Chain(h,
			m.Instrument(servecore.RouteLabel),
			servecore.AccessLog(nil),
			servecore.Limit(1024, m),
			servecore.Recover(nil, m),
		)
	}
	for _, v := range []struct {
		name string
		opts []Option
		wrap func(http.Handler) http.Handler
	}{
		{"raw/hot", nil, nil},
		{"raw/cold", []Option{WithBlobCache(1)}, nil},
		{"encode/hot", []Option{WithoutRawFastPath()}, nil},
		{"encode/cold", []Option{WithoutRawFastPath(), WithBlobCache(1)}, nil},
		{"raw/middleware", nil, middleware},
	} {
		b.Run(v.name, func(b *testing.B) {
			ts, paths := benchServer(b, v.opts, v.wrap)
			client, fetch := benchFetcher(b, ts)
			warmServe(b, client, fetch, paths)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fetch(client, paths[i%len(paths)])
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
		})
	}
	b.Run("raw/parallel", func(b *testing.B) {
		ts, paths := benchServer(b, nil, nil)
		client, fetch := benchFetcher(b, ts)
		warmServe(b, client, fetch, paths)
		b.ReportAllocs()
		b.ResetTimer()
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := next.Add(1)
				fetch(client, paths[int(i)%len(paths)])
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
	})
}

// BenchmarkArchiveManifest is the handler-layer cost of the manifest
// route — ServeHTTP into a recorder, no socket — over a 300-slot
// DiskStore (3 providers × 100 days, the size of a published archive
// mirrors poll). Variants:
//
//   - 304: the request carries the current validator, as every
//     steady-state mirror and collector poll does.
//   - 200: an unconditional GET returning the whole document.
func BenchmarkArchiveManifest(b *testing.B) {
	const days = 100
	dir := b.TempDir()
	store, err := toplist.CreateDiskStore(dir, 0, days-1)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []string{"alexa", "umbrella", "majestic"} {
		for d := toplist.Day(0); d < days; d++ {
			if err := store.Put(p, d, toplist.New([]string{fmt.Sprintf("%s-%d.example.com", p, d)})); err != nil {
				b.Fatal(err)
			}
		}
	}
	if store, err = toplist.OpenArchive(dir); err != nil {
		b.Fatal(err)
	}
	srv := NewServer(store)
	request := func(etag string) *http.Request {
		req := httptest.NewRequest(http.MethodGet, toplist.RemoteManifestPath(), nil)
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		return req
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, request(""))
	for _, v := range []struct {
		name   string
		req    *http.Request
		status int
	}{
		{"304", request(rec.Header().Get("ETag")), http.StatusNotModified},
		{"200", request(""), http.StatusOK},
	} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, v.req)
				if rec.Code != v.status {
					b.Fatalf("status %d, want %d", rec.Code, v.status)
				}
			}
		})
	}
}

// benchServer builds a cold-reopened DiskStore (2 providers × 8 days ×
// 1000 names) and serves it — optionally behind a middleware wrap —
// and returns the server plus every snapshot URL.
func benchServer(b *testing.B, opts []Option, wrap func(http.Handler) http.Handler) (*httptest.Server, []string) {
	b.Helper()
	const days, listSize = 8, 1000
	providers := []string{"alexa", "umbrella"}
	dir := b.TempDir()
	store, err := toplist.CreateDiskStore(dir, 0, days-1)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, listSize)
	for _, p := range providers {
		for d := 0; d < days; d++ {
			for i := range names {
				names[i] = fmt.Sprintf("%s-%d-site-%04d.example.com", p, d, i)
			}
			if err := store.Put(p, toplist.Day(d), toplist.New(names)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Reopen cold so the server starts from disk state, like a daemon.
	store, err = toplist.OpenArchive(dir)
	if err != nil {
		b.Fatal(err)
	}
	var handler http.Handler = NewServer(store, opts...)
	if wrap != nil {
		handler = wrap(handler)
	}
	ts := httptest.NewServer(handler)
	b.Cleanup(ts.Close)
	var paths []string
	for _, p := range providers {
		for d := 0; d < days; d++ {
			paths = append(paths, ts.URL+toplist.RemoteSnapshotPath(p, toplist.Day(d)))
		}
	}
	return ts, paths
}

// benchFetcher returns a keepalive client and a fetch that does what
// toplist.Remote does: request the stored encoding and read the
// compressed body to completion.
func benchFetcher(b *testing.B, ts *httptest.Server) (*http.Client, func(*http.Client, string)) {
	b.Helper()
	client := ts.Client()
	fetch := func(c *http.Client, url string) {
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Accept-Encoding", "gzip")
		resp, err := c.Do(req)
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("GET %s: status %d", url, resp.StatusCode)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	return client, fetch
}

// warmServe touches every slot once before timing: the DiskStore
// decode cache (encode path) and the blob cache (hot variants) are
// steady-state warm, so the timed loop measures serving, not first-hit
// fills.
func warmServe(b *testing.B, client *http.Client, fetch func(*http.Client, string), paths []string) {
	b.Helper()
	for _, p := range paths {
		fetch(client, p)
	}
}
