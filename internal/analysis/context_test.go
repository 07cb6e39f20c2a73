package analysis

import (
	"testing"

	"repro/internal/domainname"
)

// TestSLDGroupMatchesDomainname pins NewContext's sldGroup, which works
// on an already-parsed name, to domainname.SLDGroup over every world
// name plus the blogspot variants the grouping collapses.
func TestSLDGroupMatchesDomainname(t *testing.T) {
	w := ctx(t).W
	names := []string{
		"x.blogspot.com", "blogspot.com", "a.b.blogspot.co.uk", "blogspot.example.org",
		"www.net.in.tum.de", "com", "x.y.whatever.ck",
	}
	for i := range w.Domains {
		names = append(names, w.Domains[i].Name)
	}
	for _, s := range names {
		n, err := domainname.Parse(s)
		if err != nil {
			continue
		}
		if got, want := sldGroup(n), domainname.SLDGroup(s); got != want {
			t.Fatalf("sldGroup(%q) = %q, domainname.SLDGroup = %q", s, got, want)
		}
	}
}
