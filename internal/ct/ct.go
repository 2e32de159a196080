// Package ct simulates the Certificate Transparency lookup the paper uses
// during preprocessing (§3.2): given a domain, what issuers have genuinely
// issued for it? The interception detector compares an observed leaf's
// issuer against this record; a mismatch on an untrusted issuer is the
// interception signal.
//
// The simulator is an append-only log keyed by registrable domain. It
// intentionally models only what the detector consumes — issuance facts —
// not SCTs or Merkle proofs, which the paper's methodology never touches.
package ct

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry is one logged issuance.
type Entry struct {
	Domain    string // registrable domain (SLD)
	IssuerOrg string
	IssuerCN  string
	LoggedAt  time.Time
}

// Log is an append-only CT log.
type Log struct {
	mu      sync.RWMutex
	byredom map[string][]Entry
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{byredom: make(map[string][]Entry)} }

// AddChain records an issuance for domain. Later duplicate issuers are
// kept (real logs contain many entries per domain).
func (l *Log) AddChain(e Entry) {
	key := normalizeDomain(e.Domain)
	if key == "" {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.byredom[key] = append(l.byredom[key], e)
}

// Entries returns all issuances for domain (nil when never logged).
func (l *Log) Entries(domain string) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Entry(nil), l.byredom[normalizeDomain(domain)]...)
}

// IssuersFor returns the sorted set of issuer organizations logged for
// domain — the detector's comparison set.
func (l *Log) IssuersFor(domain string) []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	set := map[string]bool{}
	for _, e := range l.byredom[normalizeDomain(domain)] {
		if org := strings.TrimSpace(e.IssuerOrg); org != "" {
			set[org] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// HasIssuer reports whether issuerOrg ever issued for domain.
func (l *Log) HasIssuer(domain, issuerOrg string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	want := strings.TrimSpace(strings.ToLower(issuerOrg))
	for _, e := range l.byredom[normalizeDomain(domain)] {
		if strings.TrimSpace(strings.ToLower(e.IssuerOrg)) == want {
			return true
		}
	}
	return false
}

// Known reports whether domain has any entries at all; the detector treats
// unlogged domains as unverifiable.
func (l *Log) Known(domain string) bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byredom[normalizeDomain(domain)]) > 0
}

// Size returns the number of distinct domains logged.
func (l *Log) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.byredom)
}

// Domains returns every logged domain, sorted.
func (l *Log) Domains() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.byredom))
	for d := range l.byredom {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

func normalizeDomain(d string) string {
	return strings.TrimSuffix(strings.ToLower(strings.TrimSpace(d)), ".")
}
