package main

import (
	"io"
	"log"
	"net/http"

	"repro/internal/archived"
	"repro/internal/listserv"
	"repro/internal/serve"
)

// toplistdLimit is cmd/toplistd's default -limit.
const toplistdLimit = 1024

// archiveHandler composes the handler `toplistd -archive DIR
// -serve-archive` (or -serve-pack) runs: the stored archive in a
// swappable holder, the provider CSV routes and the archive wire API on
// one mux beside /metrics, behind the production middleware chain. The
// access log is off, as with -access-log=false: a log line per request
// would measure stderr. With rec non-nil the chain and the mux are
// each wrapped in a timing pass-through.
func archiveHandler(src archiveSource, rec *Recorder) (http.Handler, *serve.Metrics) {
	metrics := serve.NewMetrics()
	mux := http.NewServeMux()
	swap := serve.NewSwappableSource(src)
	listserv.NewServerAt(listserv.NewGatekeeper(swap, src.Last()), listserv.WithMux(mux))
	archived.NewServer(swap, archived.WithMux(mux))
	mux.Handle("GET /metrics", metrics.Handler())
	var inner http.Handler = mux
	if rec != nil {
		inner = innerHandler{next: mux, rec: rec}
	}
	quiet := log.New(io.Discard, "", 0)
	h := serve.Chain(inner,
		metrics.Instrument(serve.RouteLabel),
		serve.AccessLog(nil),
		serve.Limit(toplistdLimit, metrics),
		serve.Recover(quiet, metrics),
	)
	if rec != nil {
		h = outerHandler{next: h, rec: rec}
	}
	return h, metrics
}
