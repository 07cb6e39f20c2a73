package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call across a layer boundary. Parent is the index
// of the span that caused it, or -1 when the call carries no context
// to link it by (toplist.Source and SnapshotSink methods take none);
// those spans get their parent by interval containment at the end
// (Inferred).
type Span struct {
	Name       string
	ID         int64 // request, day or experiment ID; -1 when none
	Parent     int32
	Start, End int64 // ns since the recorder's epoch
	Inferred   bool
}

// Recorder keeps spans and counters in memory; nothing is written
// until the run ends. A nil *Recorder is the untraced run: every
// method is a no-op, and the wrappers that hold one are not installed.
type Recorder struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []Span
	limit    int
	dropped  int64
	counters map[string]float64
}

// newRecorder keeps at most limit spans; later spans are counted as
// dropped so a long serving window cannot grow memory without bound.
func newRecorder(limit int) *Recorder {
	return &Recorder{epoch: time.Now(), limit: limit, counters: make(map[string]float64)}
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Begin opens a span and returns its handle (-1 when not recorded).
func (r *Recorder) Begin(name string, parent int32, id int64) int32 {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.spans) >= r.limit {
		r.dropped++
		return -1
	}
	r.spans = append(r.spans, Span{Name: name, ID: id, Parent: parent, Start: start, End: -1})
	return int32(len(r.spans) - 1)
}

// End closes the span h.
func (r *Recorder) End(h int32) {
	if r == nil || h < 0 {
		return
	}
	end := r.now()
	r.mu.Lock()
	r.spans[h].End = end
	r.mu.Unlock()
}

// Interval records a span whose bounds were measured elsewhere.
func (r *Recorder) Interval(name string, parent int32, id int64, start, end time.Time) {
	if r == nil {
		return
	}
	h := r.Begin(name, parent, id)
	if h < 0 {
		return
	}
	r.mu.Lock()
	r.spans[h].Start = int64(start.Sub(r.epoch))
	r.spans[h].End = int64(end.Sub(r.epoch))
	r.mu.Unlock()
}

// reset discards everything recorded so far, such as warm-up traffic.
func (r *Recorder) reset() {
	r.mu.Lock()
	r.spans, r.dropped = r.spans[:0], 0
	clear(r.counters)
	r.mu.Unlock()
}

// Add accumulates a counter measured at a layer boundary.
func (r *Recorder) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Counter returns the accumulated value of a counter.
func (r *Recorder) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// closed returns the recorded spans. The analyses below call it only
// after recording has stopped.
func (r *Recorder) closed() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// Durations returns the durations of the closed spans named name.
func (r *Recorder) Durations(name string) []float64 {
	var out []float64
	for _, s := range r.closed() {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// durByID maps span ID to duration for the closed spans named name.
func (r *Recorder) durByID(name string) map[int64]int64 {
	out := make(map[int64]int64)
	for _, s := range r.closed() {
		if s.Name == name && s.End >= 0 && s.ID >= 0 {
			out[s.ID] = s.End - s.Start
		}
	}
	return out
}

// inferParents links each unlinked span to the latest-starting span of
// its declared parent layer that contains it. The layer nesting is
// fixed by how the workload composes the system (parents maps a layer
// to the layer that calls it).
func (r *Recorder) inferParents(parents map[string]string) {
	spans := r.closed()
	byName := make(map[string][]int32)
	for i, s := range spans {
		if s.End >= 0 {
			byName[s.Name] = append(byName[s.Name], int32(i))
		}
	}
	for _, idx := range byName {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].Start < spans[idx[b]].Start })
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 || s.End < 0 {
			continue
		}
		cand := byName[parents[s.Name]]
		j := sort.Search(len(cand), func(k int) bool { return spans[cand[k]].Start > s.Start }) - 1
		// Concurrent parents overlap; the one that started last and
		// still covers the child is the closest enclosing call.
		for k := j; k >= 0 && k > j-64; k-- {
			p := spans[cand[k]]
			if p.End >= s.End {
				s.Parent, s.Inferred = cand[k], true
				break
			}
		}
	}
}

// SelfTimes returns, per layer, the summed self time in ns: each
// span's duration minus the part of its interval its children cover.
func (r *Recorder) SelfTimes() map[string]float64 {
	spans := r.closed()
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, curS, curE := int64(0), int64(-1), int64(-1)
		for _, k := range kids {
			cs, ce := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if ce <= cs {
				continue
			}
			if cs > curE {
				covered += curE - curS
				curS, curE = cs, ce
			} else if ce > curE {
				curE = ce
			}
		}
		covered += curE - curS
		out[s.Name] += float64(s.End - s.Start - covered)
	}
	return out
}

// WriteSpans writes every recorded span, one per line, to path.
func (r *Recorder) WriteSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index,name,id,parent,inferred,start_ns,end_ns")
	for i, s := range r.closed() {
		fmt.Fprintf(w, "%d,%s,%d,%d,%t,%d,%d\n", i, s.Name, s.ID, s.Parent, s.Inferred, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
