package zeek

import (
	"bytes"

	"repro/internal/certmodel"
	"repro/internal/ids"
)

// internTable deduplicates the high-repetition field values of a Zeek log
// — IPs, TLS version names, SNIs, certificate fingerprints, whole chain
// columns, and issuer/subject DNs. A busy sensor repeats the same few
// thousand values across millions of rows; materializing each occurrence
// as a fresh string was most of the parser's allocation budget and, worse,
// most of the retained heap the GC re-scans every cycle.
//
// Lookups key the map by string(b) directly, which the compiler compiles
// without copying b, so a warm table costs zero allocations per field.
// Each value class is capped (internCap bytes) so an adversarial log full
// of unique values degrades to plain per-row copies instead of growing
// the table without bound; the tailers keep one table across polls, the
// batch readers one per call.
//
// Interned values are shared between records. That is safe because every
// parsed field is immutable by contract — records hand out their strings
// and chain slices read-only (see SSLRecord).
type internTable struct {
	strs   map[string]string
	chains map[string][]ids.Fingerprint
	dns    map[string]dnParts
	bytes  int
	// scratch backs unescaping so a field with escapes still interns
	// without an intermediate string.
	scratch []byte
}

// dnParts is a parsed DN column: certmodel.ParseDN of the unescaped
// value. DN strings are long and extremely repetitive (one issuer signs
// thousands of certificates), so the parse itself is memoized, not just
// the storage.
type dnParts struct{ cn, org string }

// internCap bounds the bytes retained per value class.
const internCap = 1 << 20

func newInternTable() *internTable {
	return &internTable{
		strs:   make(map[string]string, 64),
		chains: make(map[string][]ids.Fingerprint, 64),
		dns:    make(map[string]dnParts, 64),
	}
}

// str returns b as a string, shared with every previous occurrence of
// the same bytes. Nil tables pass through with a plain copy.
func (t *internTable) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if t == nil {
		return string(b)
	}
	if s, ok := t.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if t.bytes+len(s) <= internCap {
		t.strs[s] = s
		t.bytes += len(s)
	}
	return s
}

// unescaped is str over the hex-unescaped value of b. The common case —
// no escape sequences — interns the raw bytes directly.
func (t *internTable) unescaped(b []byte) string {
	if !hasEscape(b) {
		return t.str(b)
	}
	if t == nil {
		return string(unescapeAppend(nil, b))
	}
	t.scratch = unescapeAppend(t.scratch[:0], b)
	return t.str(t.scratch)
}

// fps decodes a chain-fingerprint column, sharing the whole decoded
// slice across rows presenting the same chain. Chain slices are
// read-only downstream (records only subslice them), so sharing is safe.
func (t *internTable) fps(b []byte) []ids.Fingerprint {
	if isEmptyCol(b) {
		return nil
	}
	if t != nil {
		if c, ok := t.chains[string(b)]; ok {
			return c
		}
	}
	col := b
	var out []ids.Fingerprint
	for {
		i := bytes.IndexByte(b, ',')
		if i < 0 {
			out = append(out, ids.Fingerprint(t.str(b)))
			break
		}
		out = append(out, ids.Fingerprint(t.str(b[:i])))
		b = b[i+1:]
	}
	if t != nil && t.bytes+len(col) <= internCap {
		t.chains[string(col)] = out
		t.bytes += len(col)
	}
	return out
}

// dn decodes a DN column (issuer or subject) into its CN and O parts,
// memoizing the unescape + certmodel.ParseDN by the raw column bytes.
func (t *internTable) dn(b []byte) (cn, org string) {
	if isUnset(b) || len(b) == 0 {
		return certmodel.ParseDN("")
	}
	if t != nil {
		if p, ok := t.dns[string(b)]; ok {
			return p.cn, p.org
		}
	}
	// ParseDN cuts the parts out of one string of the unescaped DN, so a
	// kept CertInfo holds no more than the DN; the memo key is copied
	// only when the entry fits under internCap.
	var scratch []byte
	if t != nil {
		scratch = t.scratch[:0]
	}
	scratch = unescapeAppend(scratch, b)
	cn, org = certmodel.ParseDN(string(scratch))
	if t == nil {
		return cn, org
	}
	t.scratch = scratch
	if t.bytes+len(b) <= internCap {
		t.dns[string(b)] = dnParts{cn: cn, org: org}
		t.bytes += len(b)
	}
	return cn, org
}
