package domainname

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// referenceParse is the join-based Parse that the substring version
// replaced, kept verbatim as the oracle FuzzParseMatchesReference
// compares against.
func referenceParse(s string) (Name, error) {
	n := strings.ToLower(strings.TrimSpace(s))
	n = strings.TrimSuffix(n, ".")
	if n == "" {
		return Name{}, fmt.Errorf("domainname: empty name")
	}
	if len(n) > 253 {
		return Name{}, fmt.Errorf("domainname: name exceeds 253 octets: %q", s)
	}
	labels := strings.Split(n, ".")
	for _, l := range labels {
		if err := checkLabel(l); err != nil {
			return Name{}, fmt.Errorf("domainname: %q: %w", s, err)
		}
	}
	out := Name{FQDN: n, Labels: labels, TLD: labels[len(labels)-1]}
	out.ValidTLD = IsValidTLD(out.TLD)
	suffixLabels := referencePublicSuffixLabels(labels)
	out.PublicSuffix = strings.Join(labels[len(labels)-suffixLabels:], ".")
	if len(labels) > suffixLabels {
		out.Base = strings.Join(labels[len(labels)-suffixLabels-1:], ".")
		out.SLD = labels[len(labels)-suffixLabels-1]
		out.Depth = len(labels) - suffixLabels - 1
	}
	return out, nil
}

// referencePublicSuffixLabels is the join-based publicSuffixLabels,
// kept verbatim for referenceParse.
func referencePublicSuffixLabels(labels []string) int {
	best := 1
	for i := 0; i < len(labels); i++ {
		candidate := strings.Join(labels[i:], ".")
		n := len(labels) - i
		if pslExcept[candidate] {
			// An exception rule makes the matched name registrable: its
			// public suffix is one label shorter.
			return n - 1
		}
		if pslExact[candidate] && n > best {
			best = n
		}
		if i > 0 {
			parent := strings.Join(labels[i:], ".")
			if pslWildcard[parent] && n+1 > best && i >= 1 {
				// "*.parent" matched by labels[i-1:].
				best = n + 1
			}
		}
	}
	if best > len(labels) {
		best = len(labels)
	}
	return best
}

// FuzzParseMatchesReference requires Parse to return exactly what the
// join-based reference returns: the same Name, field for field, or the
// same error text.
func FuzzParseMatchesReference(f *testing.F) {
	for _, r := range pslRules {
		rule := strings.TrimPrefix(strings.TrimPrefix(r, "!"), "*.")
		for _, s := range []string{r, rule, "x." + rule, "a.b." + rule, "www." + rule + "."} {
			f.Add(s)
		}
	}
	for _, s := range []string{
		"ck", "a.ck", "b.a.ck", "www.ck", "x.www.ck", "y.x.www.ck",
		"WWW.Example.COM.", "  Shop.Example.CO.UK ", "example.com..",
		"", ".", "..", "a..b", ".a.b", "a.b.", "-a.com", "a_b.localdomain",
		"deep.w.blogspot.de", "x.blogspot.com.br", strings.Repeat("a.", 130) + "com",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, gotErr := Parse(s)
		want, wantErr := referenceParse(s)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("Parse(%q) error %v, reference %v", s, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("Parse(%q) error %q, reference %q", s, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Parse(%q) = %+v, reference %+v", s, got, want)
		}
	})
}

var parseSink Name

// BenchmarkParse parses a fixed mix of names covering flat, multi-label,
// private and wildcard suffixes, deep subdomains and an invalid TLD.
func BenchmarkParse(b *testing.B) {
	names := []string{
		"example.com", "www.net.in.tum.de", "shop.example.co.uk",
		"user.blogspot.com.br", "x.y.whatever.ck", "a.b.c.d.e.example.org",
		"printer.localdomain", "static.cdn.github.io",
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		parseSink, _ = Parse(names[i%len(names)])
	}
}
