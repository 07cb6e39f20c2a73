package hygiene

import (
	"fmt"

	"repro/internal/toplist"
)

// Presence returns a filter keeping only names present on at least
// minShare of the archive's days for the provider — the paper's
// "conduct repeated, longitudinal measurements" recommendation turned
// into a membership rule. minShare of 0.5 keeps names listed at least
// half the days.
func Presence(arch toplist.Source, provider string, minShare float64) Filter {
	days := 0
	counts := make(map[string]int)
	toplist.EachDay(arch, func(d toplist.Day) {
		l := arch.Get(provider, d)
		if l == nil {
			return
		}
		days++
		for _, n := range l.Names() {
			counts[n]++
		}
	})
	need := int(minShare * float64(days))
	if need < 1 {
		need = 1
	}
	return NewFilter(fmt.Sprintf("presence-%.0f%%", 100*minShare), func(name string) bool {
		return counts[name] >= need
	})
}

// Impact quantifies what a cleaning pipeline does to a provider's
// archive: volume dropped and day-to-day churn before/after.
type Impact struct {
	Provider   string
	MeanDrop   float64 // mean share of names removed per day
	RawChurn   float64 // mean day-to-day churn of the raw top-N
	CleanChurn float64 // mean day-to-day churn of the cleaned top-N
	Days       int
}

// nameState is StabilityImpact's memo for one distinct name: the
// pipeline's verdict, and the last day (numbered within one call) the
// name was on the raw and on the cleaned top-N.
type nameState struct {
	keep             bool
	rawDay, cleanDay int
}

// StabilityImpact applies the pipeline to every day of the provider's
// archive, cutting both raw and cleaned lists to topN (0 = full list),
// and reports the churn change. Cleaning with a Presence filter is the
// combination the §9 recommendations imply.
//
// Each distinct name is evaluated by the pipeline once per call, not
// once per day it is listed; this relies on filters being pure
// functions of the name (see Filter). The result equals applying
// p.Apply to every day and comparing consecutive top-N lists.
func StabilityImpact(arch toplist.Source, provider string, p *Pipeline, topN int) Impact {
	imp := Impact{Provider: provider}
	states := make(map[string]*nameState)
	var prevRaw, prevClean, raw, clean []*nameState
	var dropSum float64
	var rawSum, cleanSum float64
	toplist.EachDay(arch, func(d toplist.Day) {
		l := arch.Get(provider, d)
		if l == nil {
			return
		}
		imp.Days++
		day := imp.Days
		raw, clean = raw[:0], clean[:0]
		kept := 0
		for r := 1; r <= l.Len(); r++ {
			name := l.Name(r)
			st := states[name]
			if st == nil {
				st = &nameState{keep: p.keep(name)}
				states[name] = st
			}
			if topN <= 0 || r <= topN {
				st.rawDay = day
				raw = append(raw, st)
			}
			if st.keep {
				kept++
				if topN <= 0 || len(clean) < topN {
					st.cleanDay = day
					clean = append(clean, st)
				}
			}
		}
		dropSum += Report{Input: l.Len(), Output: kept}.DropShare()
		if day > 1 {
			rawSum += removedShare(prevRaw, func(st *nameState) bool { return st.rawDay == day })
			cleanSum += removedShare(prevClean, func(st *nameState) bool { return st.cleanDay == day })
		}
		prevRaw, raw = raw, prevRaw
		prevClean, clean = clean, prevClean
	})
	if imp.Days > 0 {
		imp.MeanDrop = dropSum / float64(imp.Days)
	}
	if transitions := imp.Days - 1; transitions > 0 {
		imp.RawChurn = rawSum / float64(transitions)
		imp.CleanChurn = cleanSum / float64(transitions)
	}
	return imp
}

// removedShare returns the share of prev's entries (duplicates counted)
// that are not listed today: |prev \ today| / |prev|, or 0 for an empty
// prev.
func removedShare(prev []*nameState, listedToday func(*nameState) bool) float64 {
	if len(prev) == 0 {
		return 0
	}
	removed := 0
	for _, st := range prev {
		if !listedToday(st) {
			removed++
		}
	}
	return float64(removed) / float64(len(prev))
}
