// Command perfbench is the repository's benchmark. It runs one of three
// workloads over the system's public packages, checks every output, and
// prints the metrics by name with their units, ending with one JSON
// line:
//
//	bash perfbench/run.sh --workload publish|serve|reproduce \
//	    --seed N --seconds S --trace 0|1
//
// --seed is the world seed (population.Config.Seed); the same seed
// gives the same inputs. --trace 0 reports the end-to-end metrics of an
// untraced run; --trace 1 alternates untraced and traced work and
// reports the per-layer metrics, the tracing overhead, and writes the
// spans to .bench_build/trace-<workload>.csv. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/toplist"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them, with the operation defined per workload (see
// README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p99_ms", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_peak_mb", "MB"},
	{"stored_bytes_per_entry", "B"},
}

// generatorIDs re-run generators rather than reading the archive, so
// reproduce leaves them out.
var generatorIDs = map[string]bool{
	"fig5": true, "ttl": true, "ablation-volume": true, "ablation-horizon": true, "manipulation": true,
}

func archiveOnlyIDs() []string {
	var ids []string
	for _, id := range experiments.IDs() {
		if !generatorIDs[id] {
			ids = append(ids, id)
		}
	}
	return ids
}

// selfLayers are the layers whose self time is reported per operation.
var selfLayers = []string{
	"publish.pass", "engine.run", "engine.emit", "toplist.put", "pack.write", "toplist.getraw",
	"client.request", "serve.chain", "archived.handler", "listserv.handler", "toplist.get",
	"reproduce.pass", "fleet.sync", "toplist.remote_roundtrip", "toplist.putraw", "pack.getraw",
	"core.runfrom", "experiments.run", "experiments.render",
}

// perLayer lists every per-layer metric; a layer idle on a workload
// reports 0 there.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace.overhead_ms", "ms"},
		{"trace.overhead_share", "ratio"},
		{"trace.spans", "count"},
		{"trace.spans_dropped", "count"},
		{"population.build_s", "s"},
		{"traffic.model_s", "s"},
		{"providers.generator_s", "s"},
		{"engine.run_s", "s"},
		{"engine.step_ms_per_day", "ms"},
		{"engine.rank_ms_per_day", "ms"},
		{"engine.emit_ms_per_day", "ms"},
		{"engine.step_workers", "count"},
		{"engine.rank_workers", "count"},
		{"engine.slowest_stage_ms_per_day", "ms"},
		{"toplist.put_ms", "ms"},
		{"toplist.put_calls", "count"},
		{"toplist.write_amp", "ratio"},
		{"pack.write_s", "s"},
		{"toplist.getraw_us", "us"},
		{"toplist.getraw_calls", "count"},
		{"archived.blob_hit_ratio", "ratio"},
		{"archived.handler_us", "us"},
		{"archived.handler_calls", "count"},
		{"archived.not_modified_share", "ratio"},
		{"serve.chain_us", "us"},
		{"serve.socket_us", "us"},
		{"serve.shed", "count"},
		{"serve.request_p50_ms", "ms"},
		{"listserv.handler_us", "us"},
		{"listserv.handler_calls", "count"},
		{"listserv.decode_ratio", "ratio"},
		{"pack.getraw_us", "us"},
		{"pack.getraw_calls", "count"},
		{"toplist.remote_roundtrip_ms", "ms"},
		{"toplist.remote_requests", "count"},
		{"toplist.remote_bytes_in", "B"},
		{"toplist.putraw_ms", "ms"},
		{"toplist.putraw_calls", "count"},
		{"fleet.sync_s", "s"},
		{"fleet.slots_copied", "count"},
		{"fleet.steady_round_ms", "ms"},
		{"fleet.steady_copies", "count"},
		{"fleet.peer_failures", "count"},
		{"toplist.get_ms", "ms"},
		{"toplist.get_calls", "count"},
		{"toplist.get_distinct", "count"},
		{"core.runfrom_s", "s"},
		{"experiments.run_s", "s"},
		{"reproduce.phase_gap_ms", "ms"},
	}
	for _, id := range archiveOnlyIDs() {
		defs = append(defs, metricDef{"experiments." + id + "_ms", "ms"})
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms"})
	}
	return defs
}

// runCtx is what every workload receives.
type runCtx struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	trace   bool
	work    string // scratch directory, removed at exit
	nproc   int
}

func (c *runCtx) path(name string) string { return filepath.Join(c.work, name) }

// scale is the test scale grown to days, seeded by --seed.
func (c *runCtx) scale(days int) core.Scale {
	s := core.TestScale()
	s.Population.Seed = c.seed
	s.Population.Days = days
	return s
}

// report is one workload's outcome.
type report struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	notes     []string
}

func newReport() *report {
	return &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records n failed operations with the reason.
func (r *report) fail(n int64, format string, args ...any) {
	r.failed += n
	r.notef("CHECK FAILED: "+format, args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

var workloads = map[string]func(*runCtx, *report) error{
	"publish":   runPublish,
	"serve":     runServe,
	"reproduce": runReproduce,
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "publish, serve or reproduce")
	seed := fs.Uint64("seed", 1, "world seed")
	seconds := fs.Int("seconds", 10, "measured window in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fs.Usage()
		return 2, fmt.Errorf("bad arguments")
	}
	base := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return 1, err
	}
	work, err := os.MkdirTemp(base, *workload+"-")
	if err != nil {
		return 1, err
	}
	defer os.RemoveAll(work)

	c := &runCtx{
		ctx: context.Background(), seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, work: work, nproc: runtime.NumCPU(),
	}
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d go=%s %s/%s\n",
		*workload, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)
	rep := newReport()
	if err := fn(c, rep); err != nil {
		return 1, err
	}
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	defs, values := endToEnd, rep.e2e
	if c.trace {
		defs, values = perLayer(), rep.layer
	}
	out := resultOut{Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricOut)}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok && !c.trace {
			return 1, fmt.Errorf("workload did not measure %s", d.name)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-40s %14.6g %s\n", d.name, v, d.unit)
	}
	if extra := unknownKeys(values, defs); len(extra) > 0 {
		return 1, fmt.Errorf("unregistered metrics: %s", strings.Join(extra, ", "))
	}
	if out.Attempted < 1 {
		return 1, errors.New("no operation attempted")
	}
	fmt.Printf("%-40s %14.6g share\n", "error_share", float64(out.Failed)/float64(out.Attempted))
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return 1, err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1, fmt.Errorf("%d of %d operations failed their output check", out.Failed, out.Attempted)
	}
	return 0, nil
}

func unknownKeys(values map[string]float64, defs []metricDef) []string {
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for k := range values {
		if !known[k] {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// referenceStore persists the serial reference engine's archive
// (Workers: 1) for s at dir. It is a fixture: never timed.
func referenceStore(c *runCtx, s core.Scale, dir string) (*toplist.DiskStore, error) {
	s.Workers = 1
	_, eng, err := core.NewEngine(s)
	if err != nil {
		return nil, err
	}
	ds, err := toplist.CreateDiskStore(dir, 0, toplist.Day(s.Population.Days-1))
	if err != nil {
		return nil, err
	}
	if err := ds.SetScale(s.Name); err != nil {
		return nil, err
	}
	if err := ds.Expect(eng.Providers()...); err != nil {
		return nil, err
	}
	if err := eng.Run(c.ctx, s.Population.Days, ds); err != nil {
		return nil, err
	}
	if m := ds.Missing(); len(m) > 0 {
		return nil, fmt.Errorf("reference run left %d slots missing", len(m))
	}
	return ds, nil
}

// slotHashes maps every stored slot to its persisted content hash.
func slotHashes(src interface {
	toplist.Source
	RawHash(string, toplist.Day) string
}) map[slotKey]string {
	out := make(map[slotKey]string)
	for _, p := range src.Providers() {
		for d := src.First(); d <= src.Last(); d++ {
			out[slotKey{p, d}] = src.RawHash(p, d)
		}
	}
	return out
}

// storedBytes sums the slot files and the manifest under dir.
func storedBytes(dir string) (float64, error) {
	var total float64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(path, ".csv.gz") || d.Name() == "manifest.json" {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			total += float64(fi.Size())
		}
		return nil
	})
	return total, err
}

// entriesOf counts the list entries src holds.
func entriesOf(src toplist.Source) float64 {
	var n float64
	for _, p := range src.Providers() {
		for d := src.First(); d <= src.Last(); d++ {
			if l := src.Get(p, d); l != nil {
				n += float64(l.Len())
			}
		}
	}
	return n
}

// layerSummary fills the span-derived metrics every workload shares.
func layerSummary(rec *Recorder, rep *report, ops float64) {
	rep.layer["trace.spans"] = float64(len(rec.closed()))
	rep.layer["trace.spans_dropped"] = float64(rec.dropped)
	self := rec.SelfTimes()
	for _, l := range selfLayers {
		rep.layer["self."+l+"_ms"] = ratio(self[l]/1e6, ops)
	}
}

// writeTrace writes the spans for later inspection; a failure is only
// reported, the metrics stand without the file.
func writeTrace(rec *Recorder, rep *report, workload string) {
	path := filepath.Join(".bench_build", "trace-"+workload+".csv")
	if err := rec.WriteSpans(path); err != nil {
		rep.notef("trace not written: %v", err)
		return
	}
	rep.notef("spans written to %s", path)
}
