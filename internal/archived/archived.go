// Package archived serves a snapshot archive over HTTP as a
// versioned, read-only wire API — the network half of the
// toplist.Source abstraction. Anything implementing Source can be
// mounted: an in-memory toplist.Archive, a durable toplist.DiskStore,
// or a listserv.Gatekeeper view of a still-publishing collection. The
// client side is toplist.OpenRemote, which turns a served archive back
// into a Source, so analyses and experiment labs run against a remote
// archive exactly as they do against a local one.
//
// The wire protocol is defined once, in internal/toplist (the
// RemoteAPIPrefix path helpers and the RemoteManifest document); this
// package only binds it to an http.Handler:
//
//	GET /archive/v1/manifest                    RemoteManifest (JSON)
//	GET /archive/v1/days                        JSON array of ISO dates
//	GET /archive/v1/providers                   JSON array of names
//	GET /archive/v1/snapshots/{provider}/{day}  gzip-compressed CSV
//
// Snapshot documents are byte-for-byte the gzip CSV a DiskStore keeps
// on disk, served as Content-Encoding: gzip with a strong content-hash
// ETag and a Last-Modified of the provider's publication instant, so
// conditional and range requests behave like a static mirror of the
// archive directory. When the source implements toplist.RawSource
// (DiskStore does), the bytes are a verbatim copy of the stored file —
// the serving fast path: no decode, no re-encode, ETag straight from
// the hash the manifest persisted at Put time. Other sources
// (in-memory archives, gatekept live views) fall back to encoding the
// decoded list with the same deterministic encoder, so the wire bytes
// are identical on both paths.
//
// Absent snapshots are a plain 404 — exactly the nil Source.Get
// already returns for them. Corrupt snapshots differ by path: the
// decode path cannot tell them from absent (its own Get is nil → 404),
// but the raw path refuses them with a 500 — a server holding bytes it
// knows cannot decode must fail loudly rather than 200-with-garbage,
// and must not silently re-encode what its own store rejects. The
// client maps both to nil; it does not retry the 500 (the verdict is
// the store's, not the connection's).
//
// cmd/toplistd mounts this API with -serve-archive; cmd/collectd can
// fill collection gaps from a peer serving it (-peer).
package archived

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	servecore "repro/internal/serve"
	"repro/internal/toplist"
)

// scaler is implemented by sources that know the scale that produced
// them (toplist.DiskStore does, via its manifest); the wire manifest
// passes the name through to remote consumers.
type scaler interface {
	Scale() string
}

// slotLister is implemented by sources that can enumerate their stored
// slots and per-slot content hashes without I/O (toplist.DiskStore and
// pack.Pack both can). It is what lets the wire manifest carry the
// Snapshots count and the Content fingerprint — the fields that make
// the manifest ETag change whenever any slot is filled or repaired, so
// a mirror's conditional revalidation is a sound "anything to copy?"
// probe. Sources without it (in-memory archives, gatekept live views)
// simply omit the fields.
type slotLister interface {
	Has(provider string, day toplist.Day) bool
	RawHash(provider string, day toplist.Day) string
}

// Server publishes a toplist.Source over the archive wire API. It
// implements http.Handler and is safe for concurrent use.
//
// Snapshot documents are cached per (provider, day) in a bounded
// single-flight LRU (internal/cache, sized by WithBlobCache) holding
// the compressed bytes actually sent on the wire, so concurrent cold
// requests for one snapshot share a single fill. On the raw fast path
// those are the source's stored bytes, validated by the content hash
// the store persisted at Put time: a cache hit is valid exactly as
// long as the store reports the same hash, so a DiskStore Put
// repairing a slot (new hash) misses and re-reads instead of serving
// stale bytes. On the encode fallback they are the re-encoded
// document, validated by the *toplist.List pointer it encoded — lists
// are immutable, so the same reasoning applies with pointer identity
// in place of the hash. Either way a long-running daemon
// serving a large archive holds at most the cache bound, not every
// blob it ever served.
type Server struct {
	src toplist.Source
	mux *http.ServeMux

	noRaw bool // WithoutRawFastPath

	capacity int
	blobs    *cache.Cache[blobKey, blobVersion, *blobEntry]

	cached atomic.Pointer[manifestDoc] // manifest document; see manifest
}

// view resolves the source this request is served from — a stable
// per-request snapshot when src is a serve.SwappableSource — and its
// raw fast path (nil when the snapshot is not a RawSource, or the fast
// path is disabled). Resolving once per request means a hot swap
// landing mid-request cannot tear it: the manifest's day range, the
// blob bytes, and the ETag all come from one archive generation.
func (s *Server) view() (toplist.Source, toplist.RawSource) {
	src := servecore.Snapshot(s.src)
	if s.noRaw {
		return src, nil
	}
	raw, _ := src.(toplist.RawSource)
	return src, raw
}

type blobKey struct {
	provider string
	day      toplist.Day
}

// blobVersion validates a cached blob. Exactly one field is set,
// naming the path that filled the entry and what a hit must match (see
// Server).
type blobVersion struct {
	hash string        // raw path: the persisted content hash of the bytes
	list *toplist.List // encode path: the list the bytes encode
}

// blobEntry is one snapshot document as sent on the wire.
type blobEntry struct {
	data []byte
	etag string
}

// Option configures a Server.
type Option func(*Server)

// WithBlobCache bounds the snapshot blob LRU cache to n documents
// (default 64). Each entry holds one compressed document (plus, on
// the encode path, a reference to its decoded list), so the bound is
// what keeps a daemon serving a huge archive from growing to the
// archive's full size; size it to the working set remote readers
// actually sweep. The default follows the clients this repo ships: a
// mirror and a collector re-read only the newest day's snapshots, while
// a bootstrap copy reads each slot once, so a cache larger than the
// recent days buys no hits and only holds resident copies. 64 entries
// is three weeks of three providers.
func WithBlobCache(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.capacity = n
		}
	}
}

// WithoutRawFastPath forces the encode fallback even when the source
// implements toplist.RawSource. The wire bytes are identical either
// way (the equivalence tests pin it); this exists so benchmarks and
// tests can run the two paths side by side on one store, and as an
// operational escape hatch.
func WithoutRawFastPath() Option {
	return func(s *Server) { s.noRaw = true }
}

// WithMux registers the wire-API routes on an injected mux instead of
// a private one, so a daemon can compose this API, the provider-style
// CSV routes, and /metrics on one mux behind one middleware chain.
func WithMux(mux *http.ServeMux) Option {
	return func(s *Server) { s.mux = mux }
}

// NewServer builds the handler serving src under
// toplist.RemoteAPIPrefix. Mount it at the host root (the prefix is
// part of every route), beside other handlers if desired — cmd/toplistd
// mounts it next to the provider-style publication routes. If src
// implements toplist.RawSource, snapshots are served over the raw fast
// path automatically.
func NewServer(src toplist.Source, opts ...Option) *Server {
	s := &Server{src: src, capacity: 64}
	for _, o := range opts {
		o(s)
	}
	s.blobs = cache.New[blobKey, blobVersion, *blobEntry](s.capacity)
	if s.mux == nil {
		s.mux = http.NewServeMux()
	}
	s.mux.HandleFunc("GET "+toplist.RemoteManifestPath(), s.handleManifest)
	s.mux.HandleFunc("GET "+toplist.RemoteDaysPath(), s.handleDays)
	s.mux.HandleFunc("GET "+toplist.RemoteProvidersPath(), s.handleProviders)
	s.mux.HandleFunc("GET "+toplist.RemoteAPIPrefix+"/snapshots/{provider}/{day}", s.handleSnapshot)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// generationer is implemented by sources whose wire-visible state can
// only change together with a counter (toplist.DiskStore moves it on
// every manifest flush; pack.Pack, being immutable, never moves it).
// It is what lets the server build the manifest document once per
// archive state instead of once per request.
type generationer interface {
	Generation() uint64
}

// manifestDoc is one encoded wire manifest: the JSON body and its
// content-hash ETag, plus — when cached — the source and generation it
// was built from.
type manifestDoc struct {
	src  toplist.Source
	gen  uint64
	body []byte
	etag string
}

// manifest returns the wire manifest document for the current archive
// state. Sources with a generation are served from a document cached
// per (source, generation): the generation is read before building, so
// a document built while a write landed carries the older generation
// and the next request rebuilds it. Other sources (in-memory archives,
// gatekept live views whose Last moves with Advance) are rebuilt per
// call, so a still-growing archive always reports its current range.
// The range is read once per build, so the document is self-consistent
// even when an Advance or ExtendTo lands mid-build.
func (s *Server) manifest() (*manifestDoc, error) {
	src, _ := s.view()
	g, cacheable := src.(generationer)
	var gen uint64
	if cacheable {
		gen = g.Generation()
		if doc := s.cached.Load(); doc != nil && doc.src == src && doc.gen == gen {
			return doc, nil
		}
	}
	first, last := src.First(), src.Last()
	man := toplist.RemoteManifest{
		Version:   toplist.RemoteAPIVersion,
		FirstDay:  first.String(),
		LastDay:   last.String(),
		Days:      toplist.DayCount(first, last),
		Providers: src.Providers(),
	}
	if sc, ok := src.(scaler); ok {
		man.Scale = sc.Scale()
	}
	if sl, ok := src.(slotLister); ok {
		man.Snapshots, man.Content = fingerprintSlots(sl, man.Providers, first, last)
	}
	if man.Providers == nil {
		man.Providers = []string{}
	}
	body, err := json.Marshal(man)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	doc := &manifestDoc{body: body, etag: `"` + toplist.ContentHash(body) + `"`}
	if cacheable {
		doc.src, doc.gen = src, gen
		s.cached.Store(doc)
	}
	return doc, nil
}

// fingerprintSlots walks every stored slot and condenses (provider,
// day, hash) triples into a content fingerprint, plus the slot count.
// The walk needs no file or network I/O, but it is a lock probe and a
// date format per slot plus a hash over the whole listing — the bulk of
// a manifest request's cost — which is why the document is cached per
// store generation (see manifest). An archive that changes in any way
// (slot added, slot repaired to different bytes) yields a different
// fingerprint and therefore a different manifest ETag.
func fingerprintSlots(sl slotLister, providers []string, first, last toplist.Day) (int, string) {
	var buf bytes.Buffer
	count := 0
	for _, p := range providers {
		for d := first; d <= last; d++ {
			if !sl.Has(p, d) {
				continue
			}
			count++
			buf.WriteString(p)
			buf.WriteByte('/')
			buf.WriteString(d.String())
			buf.WriteByte('/')
			buf.WriteString(sl.RawHash(p, d))
			buf.WriteByte('\n')
		}
	}
	if count == 0 {
		return 0, ""
	}
	return count, toplist.ContentHash(buf.Bytes())
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	// The manifest gets real conditional-request handling (unlike the
	// advisory day/provider listings): pollers following a growing
	// archive re-validate it constantly, and a 304 on an If-None-Match
	// hit costs neither body bytes nor client re-parsing. The ETag is
	// the content hash of the encoded document, so it is stable across
	// server restarts for an unchanged archive. The zero modtime keeps
	// ServeContent on ETag-only validation — there is no meaningful
	// Last-Modified for a document derived from live archive state.
	doc, err := s.manifest()
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("ETag", doc.etag)
	http.ServeContent(w, r, "manifest.json", time.Time{}, bytes.NewReader(doc.body))
}

func (s *Server) handleDays(w http.ResponseWriter, r *http.Request) {
	src, _ := s.view()
	days := []string{}
	first, last := src.First(), src.Last()
	for d := first; d <= last; d++ {
		days = append(days, d.String())
	}
	writeJSON(w, days)
}

func (s *Server) handleProviders(w http.ResponseWriter, r *http.Request) {
	src, _ := s.view()
	providers := src.Providers()
	if providers == nil {
		providers = []string{}
	}
	writeJSON(w, providers)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	provider := r.PathValue("provider")
	day, err := toplist.ParseDay(r.PathValue("day"))
	if err != nil {
		http.Error(w, "bad date: "+r.PathValue("day"), http.StatusBadRequest)
		return
	}
	src, raw := s.view()
	// Raw fast path: the store has the wire bytes and their persisted
	// hash — serve a verbatim copy, no decode, no encode. The hash
	// probe is what routes: "" means absent or written before hashes
	// existed, both of which the decode path below answers.
	if raw != nil {
		if hash := raw.RawHash(provider, day); hash != "" {
			b, err := s.rawBlobFor(raw, provider, day, hash)
			switch {
			case err == nil:
				s.serveBlob(w, r, day, b)
				return
			case errors.Is(err, toplist.ErrCorruptSnapshot):
				// Refuse, loudly. Serving the stored bytes would be
				// 200-with-garbage; quietly falling back to re-encoding
				// what the store itself rejects would hide the damage
				// from operators. The 500 is final on the client side
				// (not retried): the verdict is the store's, and it
				// stands until a Put repairs the slot.
				http.Error(w, "snapshot is corrupt on this archive", http.StatusInternalServerError)
				return
			case errors.Is(err, errRawRaced):
				// The slot changed between the hash probe and the read;
				// the decode path serves whatever is current.
			default:
				http.Error(w, "read: "+err.Error(), http.StatusInternalServerError)
				return
			}
		}
	}
	list := src.Get(provider, day)
	if list == nil {
		// Absent and corrupt are the same status on this path:
		// Source.Get is nil for both, and the client memoizes the nil
		// either way. (Only the raw path above can tell them apart.)
		http.NotFound(w, r)
		return
	}
	b, err := s.blobFor(provider, day, list)
	if err != nil {
		http.Error(w, "encode: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.serveBlob(w, r, day, b)
}

// serveBlob writes one snapshot document. The bytes are the stored
// gzip CSV on both paths, declared as Content-Encoding: gzip over
// text/csv: a plain HTTP consumer (browser, curl) transparently
// receives CSV, while archive-aware clients (toplist.Remote sends
// Accept-Encoding: gzip itself) take the compressed document verbatim.
// ServeContent supplies the conditional-request handling — the
// content-hash ETag answers If-None-Match with 304, and because the
// hash is persisted in the store manifest, the ETag is stable across
// server restarts.
func (s *Server) serveBlob(w http.ResponseWriter, r *http.Request, day toplist.Day, b *blobEntry) {
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Encoding", "gzip")
	w.Header().Set("ETag", b.etag)
	// Snapshot documents are immutable in the only sense that matters
	// to a cache: a (provider, day) slot's bytes are produced by a
	// deterministic encoder, so they only ever change when a repair
	// restores the identical document. Caches and mirrors may pin them
	// for as long as they like — it is the manifest, which must always
	// revalidate (Cache-Control: no-cache there), that says whether
	// anything changed.
	w.Header().Set("Cache-Control", "public, max-age=31536000, immutable")
	w.Header().Set("X-Toplist-Day", day.String())
	// Same publication instant the provider-style routes use: 00:00 UTC
	// of the day after the data day.
	published := day.Date().Add(24 * time.Hour)
	http.ServeContent(w, r, day.String()+".csv", published, bytes.NewReader(b.data))
}

// errRawRaced marks a raw read that found no bytes for a slot whose
// hash probe just said there were some — a Put landed in between. The
// handler falls back to the decode path, which serves current state.
var errRawRaced = errors.New("archived: raw read raced a store write")

// rawBlobFor returns the stored document for (provider, day), reusing
// the cached copy while the store still reports the same persisted
// hash (a repairing Put changes the hash, so a stale blob misses and
// the slot is re-read). A raw read error — including the store
// refusing a corrupt slot — is not kept: the store memoizes its own
// verdicts, so re-probes are cheap and a repair is picked up
// immediately.
func (s *Server) rawBlobFor(rs toplist.RawSource, provider string, day toplist.Day, hash string) (*blobEntry, error) {
	return s.blobs.Get(context.Background(), blobKey{provider, day}, blobVersion{hash: hash}, func() (*blobEntry, error) {
		raw, err := rs.GetRaw(provider, day)
		if err == nil && raw == nil {
			err = errRawRaced
		}
		if err != nil {
			return nil, err
		}
		return &blobEntry{data: raw.Data, etag: `"` + raw.Hash + `"`}, nil
	})
}

// blobFor returns the encoded document for l, reusing the cached
// encoding while the source still returns the same immutable list.
// Encode failures are not kept: the next request re-encodes (it may
// well succeed — the list is immutable but memory pressure is not).
func (s *Server) blobFor(provider string, day toplist.Day, l *toplist.List) (*blobEntry, error) {
	return s.blobs.Get(context.Background(), blobKey{provider, day}, blobVersion{list: l}, func() (*blobEntry, error) {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		err := toplist.WriteCSV(zw, l)
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		return &blobEntry{data: buf.Bytes(), etag: `"` + toplist.ContentHash(buf.Bytes()) + `"`}, nil
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// The manifest governs what a client believes the archive covers;
	// a growing archive must not be pinned by intermediaries.
	w.Header().Set("Cache-Control", "no-cache")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing to do beyond dropping the conn.
		return
	}
}
