package hygiene

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simnet"
	"repro/internal/toplist"
)

// churn returns |prev \ cur| / |prev| for two same-provider snapshots.
// It and referenceStabilityImpact are the per-day Apply + Contains
// implementation StabilityImpact replaced, kept verbatim as its oracle.
func churn(prev, cur *toplist.List) float64 {
	if prev == nil || cur == nil || prev.Len() == 0 {
		return 0
	}
	removed := 0
	for _, n := range prev.Names() {
		if !cur.Contains(n) {
			removed++
		}
	}
	return float64(removed) / float64(prev.Len())
}

func referenceStabilityImpact(arch toplist.Source, provider string, p *Pipeline, topN int) Impact {
	imp := Impact{Provider: provider}
	var prevRaw, prevClean *toplist.List
	var dropSum float64
	var rawSum, cleanSum float64
	transitions := 0
	toplist.EachDay(arch, func(d toplist.Day) {
		l := arch.Get(provider, d)
		if l == nil {
			return
		}
		imp.Days++
		raw := l
		if topN > 0 {
			raw = l.Top(topN)
		}
		cleaned, rep := p.Apply(l)
		if topN > 0 {
			cleaned = cleaned.Top(topN)
		}
		dropSum += rep.DropShare()
		if prevRaw != nil {
			rawSum += churn(prevRaw, raw)
			cleanSum += churn(prevClean, cleaned)
			transitions++
		}
		prevRaw, prevClean = raw, cleaned
	})
	if imp.Days > 0 {
		imp.MeanDrop = dropSum / float64(imp.Days)
	}
	if transitions > 0 {
		imp.RawChurn = rawSum / float64(transitions)
		imp.CleanChurn = cleanSum / float64(transitions)
	}
	return imp
}

// randomArchive builds a days-long archive for provider "prov" whose
// lists draw with replacement from a small pool (so names persist
// across days and repeat within a day), mixing clean names, invalid
// TLDs, local junk, deep and malformed names. Some days are missing and
// some lists are empty.
func randomArchive(r *rand.Rand, days int) *toplist.Archive {
	pool := make([]string, 60)
	for i := range pool {
		switch i % 6 {
		case 0, 1:
			pool[i] = fmt.Sprintf("site%d.com", i)
		case 2:
			pool[i] = fmt.Sprintf("host%d.notatld", i)
		case 3:
			pool[i] = fmt.Sprintf("nas%d.local", i)
		case 4:
			pool[i] = fmt.Sprintf("a%d.b.c.d.example.org", i)
		default:
			pool[i] = fmt.Sprintf("bad..name%d.net", i)
		}
	}
	arch := toplist.NewArchive(0, toplist.Day(days-1))
	for d := 0; d < days; d++ {
		switch r.Intn(8) {
		case 0:
			continue // missing day
		case 1:
			if err := arch.Put("prov", toplist.Day(d), toplist.New(nil)); err != nil {
				panic(err)
			}
			continue
		}
		names := make([]string, r.Intn(30)+1)
		for i := range names {
			names[i] = pool[r.Intn(len(pool))]
		}
		if err := arch.Put("prov", toplist.Day(d), toplist.New(names)); err != nil {
			panic(err)
		}
	}
	return arch
}

// TestStabilityImpactMatchesReference requires the single-pass
// StabilityImpact to produce exactly the reference's Impact (== on
// every float, no tolerance) over random archives, top-N cuts and
// pipelines with and without a Presence filter.
func TestStabilityImpactMatchesReference(t *testing.T) {
	zone := simnet.NewStaticZone()
	for i := 0; i < 60; i += 2 {
		zone.Add(fmt.Sprintf("site%d.com", i), simnet.Response{RCode: simnet.RCodeNoError, A: 1, TTL: 60})
	}
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		arch := randomArchive(r, r.Intn(12)+1)
		pipelines := map[string]*Pipeline{
			"empty":       NewPipeline(),
			"recommended": Recommended(zone),
			"depth":       NewPipeline(WellFormed(), MaxDepth(1)),
			"presence": NewPipeline(WellFormed(), ValidTLD(),
				Presence(arch, "prov", r.Float64())),
		}
		for name, p := range pipelines {
			for _, topN := range []int{0, 1, 5, 1000} {
				want := referenceStabilityImpact(arch, "prov", p, topN)
				if got := StabilityImpact(arch, "prov", p, topN); got != want {
					t.Fatalf("trial %d, %s pipeline, top %d:\n got %+v\nwant %+v", trial, name, topN, got, want)
				}
			}
		}
	}
	// A provider the archive does not hold.
	arch := randomArchive(r, 3)
	if got, want := StabilityImpact(arch, "none", NewPipeline(), 0), referenceStabilityImpact(arch, "none", NewPipeline(), 0); got != want {
		t.Fatalf("absent provider: got %+v, want %+v", got, want)
	}
}

func BenchmarkStabilityImpact(b *testing.B) {
	arch := randomArchive(rand.New(rand.NewSource(1)), 30)
	p := NewPipeline(WellFormed(), ValidTLD(), NoLocalhost(), Presence(arch, "prov", 0.5))
	b.ReportAllocs()
	for b.Loop() {
		StabilityImpact(arch, "prov", p, 0)
	}
}
