package main

// Pass-through wrappers that time the calls into each layer from
// outside the program. Each forwards every optional interface its
// consumers type-assert (archived: RawSource, Scale, Has; pack.Write:
// Scale, Expected; experiments: RecordTiming/Timings; engine: DaySink),
// so a traced run executes the same code paths as an untraced one.
// wrap_test.go pins that.

import (
	"context"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/toplist"
)

// archiveSource is what both stored archives (toplist.DiskStore and
// pack.Pack) offer beyond Source.
type archiveSource interface {
	toplist.RawSource
	Has(provider string, day toplist.Day) bool
	Scale() string
	Expected() []string
}

type timingStore interface {
	RecordTiming(id string, d time.Duration) error
	Timings() map[string]time.Duration
}

type slotKey struct {
	provider string
	day      toplist.Day
}

// tracedSource times Get and GetRaw as <layer>.get and <layer>.getraw.
type tracedSource struct {
	inner archiveSource
	rec   *Recorder
	layer string

	mu   sync.Mutex
	seen map[slotKey]bool
}

// tracedTimingSource adds the experiment-timing extension for stores
// that have it (DiskStore); a pack has none, and must not appear to.
type tracedTimingSource struct {
	*tracedSource
	ts timingStore
}

func (s tracedTimingSource) RecordTiming(id string, d time.Duration) error {
	return s.ts.RecordTiming(id, d)
}
func (s tracedTimingSource) Timings() map[string]time.Duration { return s.ts.Timings() }

// wrapSource returns src itself when rec is nil (untraced).
func wrapSource(src archiveSource, rec *Recorder, layer string) archiveSource {
	if rec == nil {
		return src
	}
	t := &tracedSource{inner: src, rec: rec, layer: layer, seen: make(map[slotKey]bool)}
	if ts, ok := src.(timingStore); ok {
		return tracedTimingSource{t, ts}
	}
	return t
}

func (s *tracedSource) Get(provider string, day toplist.Day) *toplist.List {
	h := s.rec.Begin(s.layer+".get", -1, int64(day))
	l := s.inner.Get(provider, day)
	s.rec.End(h)
	s.mu.Lock()
	s.seen[slotKey{provider, day}] = true
	s.mu.Unlock()
	return l
}

func (s *tracedSource) GetRaw(provider string, day toplist.Day) (*toplist.RawSnapshot, error) {
	h := s.rec.Begin(s.layer+".getraw", -1, int64(day))
	raw, err := s.inner.GetRaw(provider, day)
	s.rec.End(h)
	return raw, err
}

// distinctGets reports how many distinct slots Get was asked for.
func (s *tracedSource) distinctGets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

func (s *tracedSource) First() toplist.Day  { return s.inner.First() }
func (s *tracedSource) Last() toplist.Day   { return s.inner.Last() }
func (s *tracedSource) Days() int           { return s.inner.Days() }
func (s *tracedSource) Providers() []string { return s.inner.Providers() }
func (s *tracedSource) RawHash(provider string, day toplist.Day) string {
	return s.inner.RawHash(provider, day)
}
func (s *tracedSource) Has(provider string, day toplist.Day) bool { return s.inner.Has(provider, day) }
func (s *tracedSource) Scale() string                             { return s.inner.Scale() }
func (s *tracedSource) Expected() []string                        { return s.inner.Expected() }

// tracedSink times every Put into the sink it wraps as span name,
// parented to parent, with the day as span ID.
type tracedSink struct {
	inner  engine.SnapshotSink
	rec    *Recorder
	name   string
	parent int32
}

func (s *tracedSink) Put(provider string, day toplist.Day, l *toplist.List) error {
	h := s.rec.Begin(s.name, s.parent, int64(day))
	err := s.inner.Put(provider, day, l)
	s.rec.End(h)
	return err
}

func (s *tracedSink) EndDay(day toplist.Day) error { return endDay(s.inner, day) }

// endDay forwards the engine's day barrier to sinks that take it.
func endDay(sink engine.SnapshotSink, day toplist.Day) error {
	if ds, ok := sink.(engine.DaySink); ok {
		return ds.EndDay(day)
	}
	return nil
}

// tracedStore times DiskStore.Put as toplist.put and measures the bytes
// each Put leaves written: the slot file plus the manifest it rewrites.
type tracedStore struct {
	ds  *toplist.DiskStore
	rec *Recorder
}

func (s *tracedStore) Put(provider string, day toplist.Day, l *toplist.List) error {
	h := s.rec.Begin("toplist.put", -1, int64(day))
	err := s.ds.Put(provider, day, l)
	s.rec.End(h)
	if err == nil {
		slot := fileSize(slotPath(s.ds.Dir(), provider, day))
		s.rec.Add("toplist.put_slot_bytes", slot)
		s.rec.Add("toplist.put_written_bytes", slot+fileSize(filepath.Join(s.ds.Dir(), "manifest.json")))
	}
	return err
}

// slotPath is the DiskStore layout <dir>/<provider>/<date>.csv.gz.
func slotPath(dir, provider string, day toplist.Day) string {
	return filepath.Join(dir, provider, day.String()+".csv.gz")
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// dayClock records when each day's last snapshot has been stored: the
// engine emits a day's providers in a fixed order, so the Put of the
// last provider completes the day. It is the publish workload's
// per-day latency probe and runs traced and untraced alike.
type dayClock struct {
	inner engine.SnapshotSink
	last  string
	done  []time.Time
}

func (c *dayClock) Put(provider string, day toplist.Day, l *toplist.List) error {
	err := c.inner.Put(provider, day, l)
	if err == nil && provider == c.last {
		c.done = append(c.done, time.Now())
	}
	return err
}

func (c *dayClock) EndDay(day toplist.Day) error { return endDay(c.inner, day) }

// Request headers carrying the client's span and request ID to the
// server-side wrappers.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

type spanKey struct{}

func withSpan(ctx context.Context, h int32) context.Context {
	return context.WithValue(ctx, spanKey{}, h)
}

func spanFrom(ctx context.Context) int32 {
	if h, ok := ctx.Value(spanKey{}).(int32); ok {
		return h
	}
	return -1
}

func headerInt(r *http.Request, name string) int64 {
	v, err := strconv.ParseInt(r.Header.Get(name), 10, 64)
	if err != nil {
		return -1
	}
	return v
}

// outerHandler wraps the whole middleware chain (serve.chain).
type outerHandler struct {
	next http.Handler
	rec  *Recorder
}

func (o outerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int32(headerInt(r, hdrSpan))
	h := o.rec.Begin("serve.chain", parent, headerInt(r, hdrReq))
	o.next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), h)))
	o.rec.End(h)
}

// innerHandler wraps the mux inside the chain; the route family names
// the layer the request reached.
type innerHandler struct {
	next http.Handler
	rec  *Recorder
}

func (in innerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	name := "serve.other"
	switch {
	case strings.HasPrefix(r.URL.Path, toplist.RemoteAPIPrefix+"/"):
		name = "archived.handler"
	case strings.HasPrefix(r.URL.Path, "/v1/"):
		name = "listserv.handler"
	}
	h := in.rec.Begin(name, spanFrom(r.Context()), headerInt(r, hdrReq))
	in.next.ServeHTTP(w, r)
	in.rec.End(h)
}

// tracedTransport times each round trip of the toplist.Remote client
// fleet uses, from request to the last body byte, and counts the bytes
// it reads. Between two snapshot fetches the fleet drain loop is in
// DiskStore.PutRaw, so the gap is recorded as toplist.putraw, together
// with the bytes that write left on disk in copyDir.
type tracedTransport struct {
	next    http.RoundTripper
	rec     *Recorder
	copyDir string

	mu       sync.Mutex
	lastEnd  time.Time // end of the previous snapshot fetch, zero if none pending
	lastSlot string    // slot file of that fetch
	lastPar  int32
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	parent := spanFrom(req.Context())
	t.closeGap(start)
	h := t.rec.Begin("toplist.remote_roundtrip", parent, -1)
	req = req.Clone(req.Context())
	req.Header.Set(hdrSpan, strconv.Itoa(int(h)))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.End(h)
		return nil, err
	}
	t.rec.Add("toplist.remote_requests", 1)
	slot := ""
	if rest, ok := strings.CutPrefix(req.URL.Path, toplist.RemoteAPIPrefix+"/snapshots/"); ok && resp.StatusCode == http.StatusOK {
		if provider, date, ok := strings.Cut(rest, "/"); ok {
			slot = filepath.Join(t.copyDir, provider, date+".csv.gz")
		}
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, h: h, parent: parent, slot: slot}
	return resp, nil
}

// closeGap ends a pending PutRaw gap at now.
func (t *tracedTransport) closeGap(now time.Time) {
	t.mu.Lock()
	end, slot, parent := t.lastEnd, t.lastSlot, t.lastPar
	t.lastEnd = time.Time{}
	t.mu.Unlock()
	if end.IsZero() {
		return
	}
	t.rec.Interval("toplist.putraw", parent, -1, end, now)
	if sz := fileSize(slot); sz > 0 {
		t.rec.Add("toplist.putraw_slot_bytes", sz)
		t.rec.Add("toplist.putraw_written_bytes", sz+fileSize(filepath.Join(t.copyDir, "manifest.json")))
	}
}

type countingBody struct {
	io.ReadCloser
	t      *tracedTransport
	h      int32
	parent int32
	slot   string
	n      int64
	once   sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.finish()
	return err
}

func (b *countingBody) finish() {
	b.once.Do(func() {
		b.t.rec.End(b.h)
		b.t.rec.Add("toplist.remote_bytes_in", float64(b.n))
		if b.slot != "" {
			b.t.mu.Lock()
			b.t.lastEnd, b.t.lastSlot, b.t.lastPar = time.Now(), b.slot, b.parent
			b.t.mu.Unlock()
		}
	})
}
