// Package analysis implements the paper's §5 (structure) and §6
// (stability) analyses over a multi-provider snapshot archive: Table 2
// structure metrics, list intersections (Fig. 1a, Table 3), churn and
// growth (Figs. 1b–2c), weekend/weekday dynamics (Fig. 3), rank-order
// correlation (Fig. 4), and per-domain rank variation (Table 4).
package analysis

import (
	"strings"

	"repro/internal/domainname"
	"repro/internal/population"
	"repro/internal/toplist"
)

// Context caches per-domain parse results so the per-day analyses stay
// cheap. It is safe for sequential reuse across all analyses of one
// archive. Arch is the read-side interface, so the same analyses run
// unchanged against an in-memory Archive or a DiskStore reopened from
// a previous run.
type Context struct {
	W    *population.World
	Arch toplist.Source

	// Per world-record parse cache.
	info []nameInfo
	// base-domain string -> compact key, shared across providers.
	baseKeys map[string]uint32
}

type nameInfo struct {
	tld      string
	sldGroup string
	baseKey  uint32
	depth    uint8
	validTLD bool
}

// NewContext builds the cache for the world underlying arch.
func NewContext(w *population.World, arch toplist.Source) *Context {
	c := &Context{
		W:        w,
		Arch:     arch,
		info:     make([]nameInfo, w.Len()),
		baseKeys: make(map[string]uint32),
	}
	for i := range w.Domains {
		d := &w.Domains[i]
		n, err := domainname.Parse(d.Name)
		if err != nil {
			continue
		}
		base := n.Base
		if base == "" {
			base = n.FQDN
		}
		c.info[i] = nameInfo{
			tld:      n.TLD,
			sldGroup: sldGroup(n),
			baseKey:  c.baseKey(base),
			depth:    uint8(n.Depth),
			validTLD: n.ValidTLD,
		}
	}
	return c
}

// sldGroup is domainname.SLDGroup for an already-parsed name, so each
// world domain is parsed once.
func sldGroup(n domainname.Name) string {
	if n.SLD == "blogspot" || strings.HasPrefix(n.PublicSuffix, "blogspot.") {
		return "blogspot"
	}
	return n.SLD
}

func (c *Context) baseKey(base string) uint32 {
	if k, ok := c.baseKeys[base]; ok {
		return k
	}
	k := uint32(len(c.baseKeys))
	c.baseKeys[base] = k
	return k
}

// worldIDs returns the list's IDs restricted to world records (dropping
// injected synthetic IDs). A nil list yields nil, so analyses degrade
// gracefully on incomplete archives.
func (c *Context) worldIDs(l *toplist.List) []uint32 {
	if l == nil {
		return nil
	}
	ids := l.IDs()
	if ids == nil {
		// Fall back to name lookup for lists without IDs.
		names := l.Names()
		out := make([]uint32, 0, len(names))
		for _, n := range names {
			if id, ok := c.W.IDByName(n); ok {
				out = append(out, id)
			}
		}
		return out
	}
	n := uint32(c.W.Len())
	out := ids[:0]
	for _, id := range ids {
		if id < n {
			out = append(out, id)
		}
	}
	return out
}

// subset returns the provider's list for day, cut to top entries when
// top > 0.
func (c *Context) subset(provider string, day toplist.Day, top int) *toplist.List {
	l := c.Arch.Get(provider, day)
	if l == nil {
		return nil
	}
	if top > 0 {
		return l.Top(top)
	}
	return l
}

// baseKeySet returns the set of unique base-domain keys in the list —
// the paper's base-domain normalisation for intersections (§5.2).
func (c *Context) baseKeySet(l *toplist.List) map[uint32]struct{} {
	ids := c.worldIDs(l)
	set := make(map[uint32]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	out := make(map[uint32]struct{}, len(set))
	for id := range set {
		out[c.info[id].baseKey] = struct{}{}
	}
	return out
}
