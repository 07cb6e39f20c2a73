package experiments

import (
	"reflect"
	"testing"

	"repro/internal/toplist"
)

// TestBaseDomainsMemoMatchesList requires runAggregation's memoised
// normalisation to equal List.BaseDomains list for list, with one memo
// shared across every provider and day of the study, as the render
// shares it.
func TestBaseDomainsMemoMatchesList(t *testing.T) {
	st, err := env(t).Study()
	if err != nil {
		t.Fatal(err)
	}
	bases := make(map[string]string)
	extra := toplist.New([]string{"WWW.Example.COM", "example.com", "bad..name", "x.blogspot.de", "example.com"})
	lists := []*toplist.List{extra, toplist.New(nil)}
	for d := 0; d < st.Days(); d++ {
		for _, p := range st.Providers() {
			if l := st.Archive.Get(p, toplist.Day(d)); l != nil {
				lists = append(lists, l)
			}
		}
	}
	for i, l := range lists {
		got, want := baseDomains(l, bases), l.BaseDomains()
		if !reflect.DeepEqual(got.Names(), want.Names()) || got.IDs() != nil {
			t.Fatalf("list %d: memoised base domains differ from List.BaseDomains", i)
		}
	}
}
