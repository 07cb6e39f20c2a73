package experiments

import (
	"fmt"

	"repro/internal/aggregate"
	"repro/internal/domainname"
	"repro/internal/toplist"
)

func init() {
	register("aggregation", "Extension: Tranco-style aggregation stabilises lists (§9 recommendation)", runAggregation)
}

// runAggregation evaluates churn over the final evaluation span of the
// archive: single-provider base-domain lists versus sliding Dowdall
// aggregates at several window lengths. Base-domain normalisation is
// done once per snapshot; the aggregate rankings are maintained
// incrementally.
func runAggregation(e *Env) (*Result, error) {
	st, err := e.Study()
	if err != nil {
		return nil, err
	}
	evalDays := 40
	if evalDays > st.Days()/2 {
		evalDays = st.Days() / 2
	}
	maxWindow := 30
	start := st.Days() - evalDays - maxWindow
	if start < 0 {
		start = 0
	}
	// Pre-normalise every needed snapshot once, parsing each distinct
	// name once across all of them.
	type daySet struct{ lists []*toplist.List }
	var days []daySet
	bases := make(map[string]string)
	for d := start; d < st.Days(); d++ {
		var lists []*toplist.List
		for _, p := range st.Providers() {
			lists = append(lists, baseDomains(st.Archive.Get(p, toplist.Day(d)), bases))
		}
		days = append(days, daySet{lists})
	}

	res := &Result{
		Paper:  "§9 'Consider Stability' / Tranco (Le Pochat et al. 2019): aggregating providers and days suppresses churn and weekly patterns",
		Header: []string{"list", "mean daily churn (base domains)"},
	}
	evalFrom := len(days) - evalDays
	for pi, p := range st.Providers() {
		var series []*toplist.List
		for _, ds := range days[evalFrom:] {
			series = append(series, ds.lists[pi])
		}
		res.Rows = append(res.Rows, []string{p, pct(aggregate.MeanChurn(series))})
	}
	for _, window := range []int{1, 7, 30} {
		slider, err := aggregate.NewSlider(window, st.Scale.ListSize)
		if err != nil {
			return nil, err
		}
		var series []*toplist.List
		for i, ds := range days {
			slider.Push(ds.lists...)
			if i >= evalFrom {
				series = append(series, slider.List())
			}
		}
		res.Rows = append(res.Rows, []string{
			fmt.Sprintf("aggregate (3 providers, %d-day window)", window),
			pct(aggregate.MeanChurn(series)),
		})
	}
	res.Notes = append(res.Notes, fmt.Sprintf("evaluated over the final %d days", evalDays))
	return res, nil
}

// baseDomains is l.BaseDomains() with each name's base domain looked up
// in bases (name → domainname.BaseOf), which it fills as it goes.
func baseDomains(l *toplist.List, bases map[string]string) *toplist.List {
	seen := make(map[string]struct{}, l.Len())
	var out []string
	for r := 1; r <= l.Len(); r++ {
		n := l.Name(r)
		b, ok := bases[n]
		if !ok {
			b = domainname.BaseOf(n)
			bases[n] = b
		}
		if _, ok := seen[b]; ok {
			continue
		}
		seen[b] = struct{}{}
		out = append(out, b)
	}
	return toplist.New(out)
}
