package domainname

import "strings"

// The embedded miniature Public Suffix List. It follows the PSL
// algorithm: the longest matching rule wins, "*" matches exactly one
// label, and "!" exception rules override wildcard rules. The set below
// covers the ICANN suffixes that dominate real top lists plus a sample of
// private-section suffixes (blogspot, github.io, …) so PSL-aware grouping
// is exercised the way the paper uses it.
var pslRules = []string{
	// Generic TLDs.
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int",
	"io", "co", "me", "tv", "cc", "xyz", "online", "site", "top",
	"club", "shop", "app", "dev", "cloud", "blog", "space", "store",
	// Country-code TLDs (flat).
	"de", "fr", "nl", "it", "es", "pl", "ru", "ch", "at", "be", "se",
	"no", "fi", "dk", "cz", "eu", "us", "ca", "cn", "in", "ir", "gr",
	"ro", "hu", "pt", "sk", "tw", "vn", "id", "th", "my", "sg", "hk",
	"kr", "ua", "by", "kz", "ar", "cl", "pe",
	// Multi-label public suffixes.
	"co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "uk",
	"com.au", "net.au", "org.au", "edu.au", "au",
	"co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp", "jp",
	"com.br", "net.br", "org.br", "gov.br", "br",
	"com.mx", "org.mx", "mx",
	"co.in", "net.in", "org.in",
	"co.nz", "net.nz", "org.nz", "nz",
	"co.za", "org.za", "za",
	"com.tr", "org.tr", "tr",
	"com.cn", "net.cn", "org.cn",
	"co.kr", "or.kr",
	"com.tw", "org.tw",
	"com.hk", "org.hk",
	"com.sg", "org.sg",
	"com.ar", "com.pe", "com.cl",
	// Wildcard rule with exceptions (the PSL's classic .ck case).
	"*.ck", "!www.ck",
	// Private-section suffixes: user-content platforms whose
	// subdomains belong to distinct owners.
	"blogspot.com", "blogspot.de", "blogspot.co.uk", "blogspot.com.br",
	"blogspot.fr", "blogspot.in", "blogspot.mx", "blogspot.jp",
	"github.io", "gitlab.io", "herokuapp.com", "appspot.com",
	"cloudfront.net", "s3.amazonaws.com", "fastly.net",
	"azurewebsites.net", "netlify.app", "web.app", "firebaseapp.com",
	"wordpress.com", "weebly.com", "wixsite.com",
}

var (
	pslExact    map[string]bool
	pslWildcard map[string]bool // parent of "*." rules
	pslExcept   map[string]bool // names from "!" rules
)

func init() {
	pslExact = make(map[string]bool, len(pslRules))
	pslWildcard = make(map[string]bool)
	pslExcept = make(map[string]bool)
	for _, r := range pslRules {
		switch {
		case strings.HasPrefix(r, "*."):
			pslWildcard[r[2:]] = true
		case strings.HasPrefix(r, "!"):
			pslExcept[r[1:]] = true
		default:
			pslExact[r] = true
		}
	}
}

// publicSuffixLabels returns how many trailing labels of labels form the
// public suffix under the embedded PSL. Per the PSL algorithm, a name
// with no matching rule has a one-label public suffix (its TLD). labels
// is fqdn split at its dots; every candidate suffix is looked up as a
// substring of fqdn, which allocates nothing.
func publicSuffixLabels(fqdn string, labels []string) int {
	best := 1
	off := 0
	for i, l := range labels {
		candidate := fqdn[off:]
		off += len(l) + 1
		n := len(labels) - i
		if pslExcept[candidate] {
			// An exception rule makes the matched name registrable: its
			// public suffix is one label shorter.
			return n - 1
		}
		if pslExact[candidate] && n > best {
			best = n
		}
		if i > 0 && pslWildcard[candidate] && n+1 > best {
			// "*.candidate" matched by labels[i-1:].
			best = n + 1
		}
	}
	if best > len(labels) {
		best = len(labels)
	}
	return best
}

// IsPublicSuffix reports whether the whole of s is a public suffix.
func IsPublicSuffix(s string) bool {
	n, err := Parse(s)
	if err != nil {
		return false
	}
	return n.Base == ""
}

// PublicSuffixRuleCount reports the number of embedded PSL rules; used in
// documentation/diagnostic output.
func PublicSuffixRuleCount() int { return len(pslRules) }
