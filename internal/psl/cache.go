package psl

// SplitCache memoizes Split results for a single consumer. SNI and
// SAN/CN values repeat heavily across a capture (a handful of services
// dominate billions of connections), so the analysis pipeline's
// enricher keeps one. It takes no locks: a SplitCache is NOT safe for
// concurrent use — give each goroutine its own.
type SplitCache struct {
	list *List
	m    map[string]Result
	sld  map[string]string
}

// NewSplitCache creates an empty cache over l.
func NewSplitCache(l *List) *SplitCache {
	return &SplitCache{
		list: l,
		m:    make(map[string]Result, 1024),
		sld:  make(map[string]string, 1024),
	}
}

// Split is List.Split memoized on the raw (pre-normalization) host
// string.
func (c *SplitCache) Split(host string) Result {
	if r, ok := c.m[host]; ok {
		return r
	}
	r := c.list.Split(host)
	c.m[host] = r
	return r
}

// SLD mirrors List.SLD. The registrable-domain string itself is
// memoized too: Result.Registrable concatenates on every call, and SLD
// is on the per-connection hot path.
func (c *SplitCache) SLD(host string) string {
	if s, ok := c.sld[host]; ok {
		return s
	}
	s := c.Split(host).Registrable()
	c.sld[host] = s
	return s
}

// TLD mirrors List.TLD.
func (c *SplitCache) TLD(host string) string { return c.Split(host).TLD() }

// Len reports the number of distinct host strings cached.
func (c *SplitCache) Len() int { return len(c.m) }
