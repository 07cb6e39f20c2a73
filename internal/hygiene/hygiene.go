// Package hygiene implements the paper's §9.1 recommendations as a
// composable list-cleaning pipeline.
//
// The paper documents why raw top lists are hazardous study inputs:
// Umbrella carries 2.3% of names under non-existent TLDs (§5.1), has
// an 11.5% NXDOMAIN share (§8.1), and lists subdomains 33 levels deep;
// all lists churn daily. Each Filter removes one hazard class, a
// Pipeline composes them with per-filter accounting, and
// StabilityImpact quantifies how much cleaning plus presence
// requirements reduce day-to-day churn — the empirical backing for the
// paper's "consider stability" recommendation.
//
// A filter must be a pure function of the name: the same name gets the
// same verdict whatever list, rank or day it appears on.
// StabilityImpact relies on this to evaluate each distinct name once.
package hygiene

import (
	"fmt"
	"strings"

	"repro/internal/domainname"
	"repro/internal/simnet"
	"repro/internal/toplist"
)

// Filter decides whether a listed name is kept. Keep must be a pure
// function of the name (see the package documentation).
type Filter interface {
	// Name identifies the filter in reports.
	Name() string
	// Keep reports whether the name survives the filter.
	Keep(name string) bool
}

// filterFunc adapts a function to Filter.
type filterFunc struct {
	name string
	keep func(string) bool
}

func (f filterFunc) Name() string          { return f.name }
func (f filterFunc) Keep(name string) bool { return f.keep(name) }

// NewFilter wraps keep as a named Filter.
func NewFilter(name string, keep func(string) bool) Filter {
	return filterFunc{name: name, keep: keep}
}

// ValidTLD drops names whose top-level domain is not in the delegated
// TLD registry — the §5.1 invalid-TLD hazard (instagram, localdomain,
// cpe, ...).
func ValidTLD() Filter {
	return NewFilter("valid-tld", func(name string) bool {
		n, err := domainname.Parse(name)
		return err == nil && n.ValidTLD
	})
}

// MaxDepth drops names nested deeper than maxDepth subdomain levels
// (the paper observes levels up to 33 in Umbrella; web studies rarely
// want anything beyond 1–2).
func MaxDepth(maxDepth int) Filter {
	return NewFilter(fmt.Sprintf("max-depth-%d", maxDepth), func(name string) bool {
		n, err := domainname.Parse(name)
		return err == nil && n.Depth <= maxDepth
	})
}

// WellFormed drops syntactically broken names (empty labels, illegal
// characters, overlong labels) that a measurement pipeline could not
// query anyway.
func WellFormed() Filter {
	return NewFilter("well-formed", func(name string) bool {
		_, err := domainname.Parse(name)
		return err == nil
	})
}

// Resolvable drops names that return NXDOMAIN from the given zone —
// the §8.1 "a top list should only provide existing domains" check.
// SERVFAIL names are kept: they exist but are temporarily broken.
func Resolvable(zone simnet.Zone) Filter {
	return NewFilter("resolvable", func(name string) bool {
		return zone.Lookup(name).RCode != simnet.RCodeNXDomain
	})
}

// NoLocalhost drops loopback/localdomain style junk occasionally seen
// in DNS-derived lists.
func NoLocalhost() Filter {
	return NewFilter("no-localhost", func(name string) bool {
		lower := strings.ToLower(name)
		return lower != "localhost" &&
			!strings.HasSuffix(lower, ".localhost") &&
			!strings.HasSuffix(lower, ".local") &&
			!strings.HasSuffix(lower, ".localdomain")
	})
}

// Drops records how many names one filter removed.
type Drops struct {
	Filter  string
	Dropped int
}

// Report accounts for a pipeline application.
type Report struct {
	Input  int
	Output int
	Drops  []Drops // in pipeline order
}

// DropShare is the fraction of input removed overall.
func (r Report) DropShare() float64 {
	if r.Input == 0 {
		return 0
	}
	return float64(r.Input-r.Output) / float64(r.Input)
}

// String renders the report in one line.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d -> %d (%.1f%% dropped)", r.Input, r.Output, 100*r.DropShare())
	for _, d := range r.Drops {
		fmt.Fprintf(&b, "; %s: -%d", d.Filter, d.Dropped)
	}
	return b.String()
}

// Pipeline applies filters in order. The zero value is a no-op
// pipeline.
type Pipeline struct {
	filters []Filter
}

// NewPipeline composes filters in application order.
func NewPipeline(filters ...Filter) *Pipeline {
	return &Pipeline{filters: append([]Filter(nil), filters...)}
}

// Recommended is the pipeline the paper's recommendations imply for a
// web-measurement use of a top list: well-formed names under valid
// TLDs, no local junk, resolvable in DNS.
func Recommended(zone simnet.Zone) *Pipeline {
	return NewPipeline(WellFormed(), ValidTLD(), NoLocalhost(), Resolvable(zone))
}

// Apply filters the list, preserving rank order of the survivors, and
// returns the cleaned list plus the per-filter accounting.
func (p *Pipeline) Apply(l *toplist.List) (*toplist.List, Report) {
	names := l.Names()
	rep := Report{Input: len(names)}
	for _, f := range p.filters {
		kept := names[:0]
		dropped := 0
		for _, n := range names {
			if f.Keep(n) {
				kept = append(kept, n)
			} else {
				dropped++
			}
		}
		names = kept
		rep.Drops = append(rep.Drops, Drops{Filter: f.Name(), Dropped: dropped})
	}
	rep.Output = len(names)
	return toplist.New(names), rep
}

// keep reports whether name survives every filter of the pipeline.
func (p *Pipeline) keep(name string) bool {
	for _, f := range p.filters {
		if !f.Keep(name) {
			return false
		}
	}
	return true
}

// ApplyTop filters the list and cuts the result to size — the "clean
// then take top N" usage that keeps study sets comparable across days.
func (p *Pipeline) ApplyTop(l *toplist.List, size int) (*toplist.List, Report) {
	cleaned, rep := p.Apply(l)
	return cleaned.Top(size), rep
}
