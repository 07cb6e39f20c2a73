package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/listserv"
	"repro/internal/serve"
	"repro/internal/toplist"
)

var serveParents = map[string]string{
	"toplist.getraw": "archived.handler",
	"toplist.get":    "listserv.handler",
}

// expectDoc is the body and ETag a correct server sends with a 200.
type expectDoc struct {
	body []byte
	etag string // "" where the route sends none
}

// serveFixture is the archive the serve workload reads, the recorded
// requests it replays and the responses it must see.
type serveFixture struct {
	dir         string
	calls       []call
	warm        []call               // each distinct request once, in first-seen order
	docs        map[string]expectDoc // by request path
	manifestTag string
	entries     float64
}

// runServe measures archive serving to callers that each wait for a
// reply: a closed loop of nproc clients on keep-alive loopback
// connections against listserv and archived on one mux behind the
// production chain, over a DiskStore reopened from disk.
func runServe(c *runCtx, rep *report) error {
	s := c.scale(publishDays)
	fx := &serveFixture{dir: c.path("archive")}
	ref, err := referenceStore(c, s, fx.dir)
	if err != nil {
		return err
	}
	if err := fx.record(c, ref); err != nil {
		return err
	}
	rep.notef("%s", mixSummary(fx.calls))
	fx.entries = entriesOf(ref)
	stored, err := storedBytes(fx.dir)
	if err != nil {
		return err
	}
	rep.e2e["stored_bytes_per_entry"] = stored / fx.entries

	// The window is split into sessions, each on a freshly set-up
	// server, and every metric is the median over sessions: one server
	// instance can run persistently faster or slower than the next, so
	// a single session would measure the instance. The traced run uses
	// one untraced and one traced session.
	sessions, window := 10, c.seconds/10
	if c.trace {
		sessions, window = 1, c.seconds/2
	}
	// Latency percentiles pool the requests of every session. A
	// request's latency is bimodal, and the p50 lies between the modes,
	// so it is reported only with the per-layer metrics, which carry no
	// bound (see README.md).
	var setups, rps, alloc, peak []float64
	var untracedLat []float64
	for k := 0; k < sessions; k++ {
		runtime.GC() // the last session's garbage is not set-up's
		srv, err := fx.setup(c, nil)
		if err != nil {
			return err
		}
		setups = append(setups, srv.took.Seconds())
		runtime.GC() // start every session from the same heap state
		res := fx.load(c, srv, rep, nil, window)
		srv.close()
		rps = append(rps, float64(res.n)/res.elapsed.Seconds())
		untracedLat = append(untracedLat, res.lat...)
		alloc = append(alloc, res.allocMB/float64(res.n))
		peak = append(peak, res.peakMB)
		rep.notef("session %d: %d requests in %.2fs, %.6g req/s (%d shed)",
			k, res.n, res.elapsed.Seconds(), rps[k], srv.metrics.ShedCount())
	}
	rep.e2e["setup_s"] = median(setups)
	rep.e2e["throughput_per_s"] = median(rps)
	rep.e2e["latency_p99_ms"] = percentile(untracedLat, 99) / 1e6
	rep.e2e["alloc_mb_per_op"] = median(alloc)
	rep.e2e["heap_peak_mb"] = median(peak)
	rep.notef("op = one request; %d clients per session, medians over %d sessions", c.nproc, sessions)
	p50 := median(untracedLat) / 1e6
	rep.notef("serve_rps = %.6g, serve_p50_ms = %.4g, serve_p99_ms = %.4g",
		rep.e2e["throughput_per_s"], p50, rep.e2e["latency_p99_ms"])
	if !c.trace {
		return nil
	}

	rec := newRecorder(1 << 20)
	tsrv, err := fx.setup(c, rec)
	if err != nil {
		return err
	}
	rec.reset()
	runtime.GC()
	tres := fx.load(c, tsrv, rep, rec, window)
	tsrv.close()
	rec.inferParents(serveParents)
	L := rep.layer
	getraw := rec.Durations("toplist.getraw")
	L["toplist.getraw_calls"] = float64(len(getraw))
	L["toplist.getraw_us"] = median(getraw) / 1e3
	L["archived.blob_hit_ratio"] = 1 - ratio(float64(len(getraw)), float64(tres.raw200))
	arch := rec.Durations("archived.handler")
	L["archived.handler_calls"] = float64(len(arch))
	L["archived.handler_us"] = median(arch) / 1e3
	L["archived.not_modified_share"] = ratio(float64(tres.notModified), float64(tres.archived))
	ls := rec.Durations("listserv.handler")
	L["listserv.handler_calls"] = float64(len(ls))
	L["listserv.handler_us"] = median(ls) / 1e3
	L["listserv.decode_ratio"] = ratio(float64(len(rec.Durations("toplist.get"))), float64(tres.list))
	gets := rec.Durations("toplist.get")
	L["toplist.get_calls"] = float64(len(gets))
	L["toplist.get_ms"] = median(gets) / 1e6
	L["serve.shed"] = float64(tsrv.metrics.ShedCount())
	L["serve.request_p50_ms"] = p50

	// Per request: chain = outer - inner handler, socket = client - outer.
	client, outer := rec.durByID("client.request"), rec.durByID("serve.chain")
	inner := rec.durByID("archived.handler")
	for id, d := range rec.durByID("listserv.handler") {
		inner[id] = d
	}
	var chain, socket []float64
	for id, o := range outer {
		if in, ok := inner[id]; ok {
			chain = append(chain, float64(o-in))
		}
		if cl, ok := client[id]; ok {
			socket = append(socket, float64(cl-o))
		}
	}
	L["serve.chain_us"] = median(chain) / 1e3
	L["serve.socket_us"] = median(socket) / 1e3
	overhead := median(tres.lat) - median(untracedLat)
	L["trace.overhead_ms"] = overhead / 1e6
	L["trace.overhead_share"] = ratio(overhead, median(untracedLat))
	layerSummary(rec, rep, float64(tres.n))
	writeTrace(rec, rep, "serve")
	return nil
}

// record opens the archive, records the mix against it (recordMix)
// and works out, from the reference store alone, what a correct server
// answers to every recorded request.
func (fx *serveFixture) record(c *runCtx, ref *toplist.DiskStore) error {
	store, err := toplist.OpenArchive(fx.dir)
	if err != nil {
		return err
	}
	h, _ := archiveHandler(store, nil)
	if fx.calls, err = recordMix(c, h, ref); err != nil {
		return err
	}
	return fx.expect(h, ref)
}

// expect fills fx.docs and fx.warm and checks every recorded answer:
// a snapshot document is the stored bytes, which hash to the manifest
// hash; a list document decodes to the stored list; the manifest and
// index describe the stored archive; a 304 answers only the current
// manifest's own validator, and that validator always gets a 304.
func (fx *serveFixture) expect(h http.Handler, ref *toplist.DiskStore) error {
	slots := make(map[string]slotKey)
	for _, p := range ref.Providers() {
		for d := ref.First(); d <= ref.Last(); d++ {
			slots[toplist.RemoteSnapshotPath(p, d)] = slotKey{p, d}
			slots[listserv.SnapshotPath(p, d, listserv.FormatZip)] = slotKey{p, d}
		}
	}
	man := serveInProcess(h, toplist.RemoteManifestPath())
	if err := fx.checkManifest(man.Code, man.Body.Bytes(), ref); err != nil {
		return err
	}
	fx.manifestTag = `"` + toplist.ContentHash(man.Body.Bytes()) + `"`
	fx.docs = map[string]expectDoc{toplist.RemoteManifestPath(): {man.Body.Bytes(), fx.manifestTag}}
	idx := serveInProcess(h, "/v1/index")
	var ix listserv.Index
	if err := json.Unmarshal(idx.Body.Bytes(), &ix); err != nil || idx.Code != http.StatusOK {
		return fmt.Errorf("index: status %d (%v)", idx.Code, err)
	}
	if ix.FirstDay != ref.First().String() || ix.LastDay != ref.Last().String() || len(ix.Providers) != len(ref.Providers()) {
		return fmt.Errorf("index: %+v does not describe the stored archive", ix)
	}
	fx.docs["/v1/index"] = expectDoc{idx.Body.Bytes(), ""}

	seen := make(map[call]bool)
	for _, cl := range fx.calls {
		if err := fx.expectCall(cl, ref, slots); err != nil {
			return fmt.Errorf("recorded %s (If-None-Match %q): %w", cl.path, cl.inm, err)
		}
		if !seen[cl] {
			seen[cl] = true
			fx.warm = append(fx.warm, cl)
		}
	}
	return nil
}

func (fx *serveFixture) expectCall(cl call, ref *toplist.DiskStore, slots map[string]slotKey) error {
	matches := cl.kind == kindManifest && cl.inm == fx.manifestTag
	switch {
	case cl.status == http.StatusNotModified && !matches:
		return fmt.Errorf("304 for a validator that does not match")
	case cl.status == http.StatusNotModified:
		return nil
	case cl.status != http.StatusOK:
		return fmt.Errorf("status %d", cl.status)
	case matches:
		return fmt.Errorf("200 for the current manifest's own validator")
	}
	if _, ok := fx.docs[cl.path]; ok {
		return nil
	}
	k, ok := slots[cl.path]
	if !ok {
		return fmt.Errorf("no stored slot has this path")
	}
	switch cl.kind {
	case kindRaw:
		raw, err := ref.GetRaw(k.provider, k.day)
		if err != nil || raw == nil {
			return fmt.Errorf("no raw bytes (%v)", err)
		}
		if toplist.ContentHash(raw.Data) != raw.Hash {
			return fmt.Errorf("stored bytes do not hash to the manifest hash")
		}
		if !strings.Contains(cl.acceptEnc, "gzip") {
			return fmt.Errorf("Accept-Encoding %q: the stored bytes are sent only to gzip clients", cl.acceptEnc)
		}
		fx.docs[cl.path] = expectDoc{raw.Data, `"` + raw.Hash + `"`}
	case kindList:
		l := ref.Get(k.provider, k.day)
		doc, err := listserv.Encode(l, listserv.FormatZip)
		if err != nil {
			return err
		}
		back, err := listserv.Decode(doc, listserv.FormatZip)
		if err != nil {
			return err
		}
		if !sameNames(back, l) {
			return fmt.Errorf("zip document does not decode to the stored list")
		}
		fx.docs[cl.path] = expectDoc{doc, `"` + toplist.ContentHash(doc) + `"`}
	}
	return nil
}

// serveInProcess answers one GET through h without a socket.
func serveInProcess(h http.Handler, path string) *httptest.ResponseRecorder {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	h.ServeHTTP(rr, req)
	return rr
}

func sameNames(a, b *toplist.List) bool {
	if a == nil || b == nil || a.Len() != b.Len() {
		return false
	}
	for r := 1; r <= a.Len(); r++ {
		if a.Name(r) != b.Name(r) {
			return false
		}
	}
	return true
}

type serveSetup struct {
	srv     *httptest.Server
	client  *http.Client
	metrics *serve.Metrics
	took    time.Duration
}

func (s *serveSetup) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// setup opens the archive, composes the handler, starts the server and
// warms it with every distinct recorded request once, which fills the
// blob caches and the store's decode cache. setup_s is this whole
// sequence up to the first manifest answered over the socket.
func (fx *serveFixture) setup(c *runCtx, rec *Recorder) (*serveSetup, error) {
	t0 := time.Now()
	store, err := toplist.OpenArchive(fx.dir)
	if err != nil {
		return nil, err
	}
	h, metrics := archiveHandler(wrapSource(store, rec, "toplist"), rec)
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: c.nproc,
		DisableCompression:  true,
	}}
	s := &serveSetup{srv: httptest.NewServer(h), client: client, metrics: metrics}
	// Warm the caches through the handler in process: the socket adds
	// nothing to warm, and on a shared virtual machine its cost drifts
	// with the host's load far more than the caches' fill does.
	for _, cl := range fx.warm {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, cl.path, nil)
		setCallHeaders(req.Header, cl)
		h.ServeHTTP(rr, req)
		if rr.Code != cl.status {
			s.close()
			return nil, fmt.Errorf("warm-up %s: status %d, want %d", cl.path, rr.Code, cl.status)
		}
	}
	// The server is up once it answers over the socket.
	var buf bytes.Buffer
	status, _, body, err := s.get(&buf, call{kind: kindManifest, path: toplist.RemoteManifestPath(), acceptEnc: "gzip"}, nil)
	s.took = time.Since(t0)
	if err == nil && (status != http.StatusOK || !bytes.Equal(body, fx.docs[toplist.RemoteManifestPath()].body)) {
		err = fmt.Errorf("manifest: status %d, body differs from the checked document", status)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (fx *serveFixture) checkManifest(status int, body []byte, ref *toplist.DiskStore) error {
	var m toplist.RemoteManifest
	if status != http.StatusOK {
		return fmt.Errorf("manifest: status %d", status)
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("manifest: %w", err)
	}
	if m.Days != ref.Days() || m.Snapshots != ref.Days()*len(ref.Providers()) || m.Content == "" {
		return fmt.Errorf("manifest: %d days, %d snapshots, content %q", m.Days, m.Snapshots, m.Content)
	}
	return nil
}

func setCallHeaders(h http.Header, cl call) {
	if cl.acceptEnc != "" {
		h.Set("Accept-Encoding", cl.acceptEnc)
	}
	if cl.inm != "" {
		h.Set("If-None-Match", cl.inm)
	}
}

// get sends one recorded request with the headers its client sent and
// reads the whole body into buf; the returned body aliases buf.
func (s *serveSetup) get(buf *bytes.Buffer, cl call, hdr func(http.Header)) (status int, etag string, body []byte, err error) {
	req, err := http.NewRequest(http.MethodGet, s.srv.URL+cl.path, nil)
	if err != nil {
		return 0, "", nil, err
	}
	setCallHeaders(req.Header, cl)
	if hdr != nil {
		hdr(req.Header)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	// Bodies are read into the client's reused buffer, so the load
	// generator's own allocations stay small beside the server's.
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("ETag"), buf.Bytes(), err
}

type loadResult struct {
	n, failed                     int64
	raw200, notModified, archived int64
	list                          int64
	lat                           []float64 // ns per request
	buf                           bytes.Buffer
	elapsed                       time.Duration
	allocMB, peakMB               float64
}

// load runs the closed loop for window and checks every response.
func (fx *serveFixture) load(c *runCtx, s *serveSetup, rep *report, rec *Recorder, window time.Duration) loadResult {
	var (
		mu       sync.Mutex
		total    loadResult
		wg       sync.WaitGroup
		nextID   atomic.Int64
		firstErr error
	)
	mem := watchMem()
	start := time.Now()
	deadline := start.Add(window)
	for w := 0; w < c.nproc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(c.seed, uint64(w)))
			var r loadResult
			r.lat = make([]float64, 0, 1<<16)

			for time.Now().Before(deadline) {
				err := fx.one(s, rng, rec, nextID.Add(1), &r)
				r.n++

				if err != nil {
					r.failed++
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			total.n += r.n
			total.failed += r.failed
			total.raw200 += r.raw200
			total.notModified += r.notModified
			total.archived += r.archived
			total.list += r.list
			total.lat = append(total.lat, r.lat...)

			mu.Unlock()
		}(w)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.allocMB, total.peakMB = mem.end()
	rep.attempted += total.n
	if total.failed > 0 {
		rep.fail(total.failed, "%d of %d responses were wrong (first: %v)", total.failed, total.n, firstErr)
	}
	return total
}

// one replays a recorded request drawn uniformly from the mix and
// checks the response: the recorded status, and for a 200 the
// document and ETag worked out from the store at fixture time.
func (fx *serveFixture) one(s *serveSetup, rng *rand.Rand, rec *Recorder, id int64, r *loadResult) error {
	var hdr func(http.Header)
	h := rec.Begin("client.request", -1, id)
	if rec != nil {
		hdr = func(hd http.Header) {
			hd.Set(hdrReq, strconv.FormatInt(id, 10))
			hd.Set(hdrSpan, strconv.Itoa(int(h)))
		}
	}
	cl := &fx.calls[rng.IntN(len(fx.calls))]
	t0 := time.Now()
	status, etag, body, err := s.get(&r.buf, *cl, hdr)
	r.lat = append(r.lat, float64(time.Since(t0)))
	rec.End(h)
	if err != nil {
		return err
	}
	if status != cl.status {
		return fmt.Errorf("%s (If-None-Match %q): status %d, want %d", cl.path, cl.inm, status, cl.status)
	}
	switch cl.kind {
	case kindManifest, kindRaw:
		r.archived++
	case kindList:
		r.list++
	}
	if status == http.StatusNotModified {
		r.notModified++
		if len(body) != 0 {
			return fmt.Errorf("%s: 304 with a body", cl.path)
		}
		return nil
	}
	doc := fx.docs[cl.path]
	if !bytes.Equal(body, doc.body) {
		return fmt.Errorf("%s: body differs from the expected document", cl.path)
	}
	if doc.etag != "" && etag != doc.etag {
		return fmt.Errorf("%s: ETag %s, want %s", cl.path, etag, doc.etag)
	}
	if cl.kind == kindRaw {
		r.raw200++
	}
	return nil
}
