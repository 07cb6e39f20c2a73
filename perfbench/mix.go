package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/listserv"
	"repro/internal/toplist"
)

// The serve workload does not choose its requests. They are recorded
// from the repository's own clients, run in process against the served
// archive for one publication day, and replayed by the load generator
// (see README.md, "The serve mix").
const (
	// mirrordRounds is one day of cmd/mirrord at its default
	// -sync-every 30s.
	mirrordRounds = int(24 * time.Hour / (30 * time.Second))
	// collectdPasses is one day of cmd/collectd at its default
	// -interval 1h.
	collectdPasses = 24
)

type callKind int

const (
	kindManifest callKind = iota // archived manifest
	kindRaw                      // archived snapshot document
	kindIndex                    // listserv publication index
	kindList                     // listserv snapshot document
)

var kindNames = [...]string{"manifest", "snapshot", "index", "list"}

func kindOf(path string) (callKind, bool) {
	switch {
	case path == toplist.RemoteManifestPath():
		return kindManifest, true
	case strings.HasPrefix(path, toplist.RemoteAPIPrefix+"/snapshots/"):
		return kindRaw, true
	case path == "/v1/index":
		return kindIndex, true
	case strings.HasPrefix(path, "/v1/"):
		return kindList, true
	}
	return 0, false
}

// call is one recorded request and the status the server answered.
type call struct {
	kind                 callKind
	path, inm, acceptEnc string
	status               int
}

// statusWriter remembers the status a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// recordMix serves h on loopback and runs one publication day of one
// of each client the repository ships against it, recording every
// request in the order the server saw it:
//
//   - mirrord: a fleet.Mirror whose store holds every day but the
//     newest, run for mirrordRounds sync rounds. Its first round opens
//     the peer and copies the newest day; every later round is one
//     conditional manifest GET.
//   - collectd: a listserv.Client in collectd's zip format, run for
//     collectdPasses passes. Each pass reads the index; the first also
//     fetches the newest day, the only one the collector lacks. The
//     archive has no gaps, so no pass fills gaps from peers.
//   - a researcher's node: fleet.Bootstrap and one SyncOnce into an
//     empty directory, the copy the reproduce workload makes.
func recordMix(c *runCtx, h http.Handler, ref *toplist.DiskStore) ([]call, error) {
	var (
		mu    sync.Mutex
		calls []call
		bad   error
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(sw, r)
		kind, ok := kindOf(r.URL.Path)
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			bad = fmt.Errorf("scenario requested %s, which the mix does not replay", r.URL.Path)
			return
		}
		calls = append(calls, call{kind: kind, path: r.URL.RequestURI(),
			inm: r.Header.Get("If-None-Match"), acceptEnc: r.Header.Get("Accept-Encoding"), status: sw.status})
	}))
	defer srv.Close()
	first, last, provs := ref.First(), ref.Last(), ref.Providers()

	// mirrord, up to date as of yesterday.
	mdir := c.path("mix-mirrord")
	defer os.RemoveAll(mdir)
	ms, err := toplist.CreateDiskStore(mdir, first, last-1)
	if err != nil {
		return nil, err
	}
	if err := ms.Expect(provs...); err != nil {
		return nil, err
	}
	for _, p := range provs {
		for d := first; d < last; d++ {
			raw, err := ref.GetRaw(p, d)
			if err != nil {
				return nil, err
			}
			if err := ms.PutRaw(p, d, raw.Data); err != nil {
				return nil, err
			}
		}
	}
	peers, err := fleet.NewPeerSet([]string{srv.URL})
	if err != nil {
		return nil, err
	}
	m := fleet.NewMirror(ms, peers)
	for i := 0; i < mirrordRounds; i++ {
		m.SyncOnce(c.ctx)
	}
	if m.Copied() != int64(len(provs)) || m.PeerFailures() != 0 {
		return nil, fmt.Errorf("scenario mirrord: copied %d of %d, %d peer failures", m.Copied(), len(provs), m.PeerFailures())
	}

	// collectd, holding every day but the newest.
	client := listserv.NewClient(srv.URL, listserv.WithFormat(listserv.FormatZip))
	for pass := 0; pass < collectdPasses; pass++ {
		idx, err := client.Index(c.ctx)
		if err != nil {
			return nil, err
		}
		if idx.LastDay != last.String() {
			return nil, fmt.Errorf("scenario collectd: index ends %s, want %s", idx.LastDay, last)
		}
		if pass > 0 {
			continue
		}
		for _, p := range idx.Providers {
			l, err := client.FetchDay(c.ctx, p, last)
			if err != nil {
				return nil, err
			}
			if !sameNames(l, ref.Get(p, last)) {
				return nil, fmt.Errorf("scenario collectd: %s %s differs from the stored list", p, last)
			}
		}
	}

	// A researcher's node copying the archive.
	cdir := c.path("mix-copy")
	defer os.RemoveAll(cdir)
	peers, err = fleet.NewPeerSet([]string{srv.URL})
	if err != nil {
		return nil, err
	}
	store, err := fleet.Bootstrap(c.ctx, cdir, peers)
	if err != nil {
		return nil, err
	}
	cm := fleet.NewMirror(store, peers)
	cm.SyncOnce(c.ctx)
	if slots := int64(len(provs) * ref.Days()); cm.Copied() != slots || cm.PeerFailures() != 0 {
		return nil, fmt.Errorf("scenario copy: copied %d of %d, %d peer failures", cm.Copied(), slots, cm.PeerFailures())
	}

	mu.Lock()
	defer mu.Unlock()
	return calls, bad
}

// mixSummary describes the recorded mix as shares of kind and status.
func mixSummary(calls []call) string {
	counts := make(map[string]int)
	for _, cl := range calls {
		k := fmt.Sprintf("%s %d", kindNames[cl.kind], cl.status)
		if cl.inm != "" {
			k += " (conditional)"
		}
		counts[k]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sort.SliceStable(keys, func(a, b int) bool { return counts[keys[a]] > counts[keys[b]] })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s %d (%.2f%%)", k, counts[k], 100*float64(counts[k])/float64(len(calls)))
	}
	return fmt.Sprintf("recorded mix, %d requests: %s", len(calls), strings.Join(parts, ", "))
}
