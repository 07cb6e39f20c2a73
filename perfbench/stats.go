package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or 0 for an empty sample. It sorts xs in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	return xs[max(0, min(k, len(xs)-1))]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio is a/b, or 0 when b is 0 (the layer was idle on this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/memory/classes/heap/objects:bytes"},
}

func readMem() (allocs, heap uint64) {
	s := make([]metrics.Sample, len(memSamples))
	copy(s, memSamples)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// memWatch measures the bytes allocated over a window and the peak heap
// (live plus not yet collected objects) sampled every 5 ms within it.
type memWatch struct {
	startAllocs uint64
	stop        chan struct{}
	done        sync.WaitGroup
	peak        uint64
}

func watchMem() *memWatch {
	m := &memWatch{stop: make(chan struct{})}
	m.startAllocs, m.peak = readMem()
	m.done.Add(1)
	go func() {
		defer m.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				if _, h := readMem(); h > m.peak {
					m.peak = h
				}
			}
		}
	}()
	return m
}

// end stops sampling and returns MB allocated and peak heap MB.
func (m *memWatch) end() (allocMB, peakMB float64) {
	close(m.stop)
	m.done.Wait()
	allocs, h := readMem()
	if h > m.peak {
		m.peak = h
	}
	return float64(allocs-m.startAllocs) / 1e6, float64(m.peak) / 1e6
}
