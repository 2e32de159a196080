package zeek

import (
	"bytes"
	"hash/maphash"

	"repro/internal/arena"
	"repro/internal/certmodel"
	"repro/internal/ids"
)

// internTable deduplicates the high-repetition field values of a Zeek log
// — IPs, TLS version names, SNIs, certificate fingerprints, whole chain
// columns, and issuer DNs. A busy sensor repeats the same few thousand
// values across millions of rows; materializing each occurrence as a
// fresh string was most of the parser's allocation budget and, worse,
// most of the retained heap the GC re-scans every cycle.
//
// Lookups key the map by string(b) directly, which the compiler compiles
// without copying b, so a warm table costs zero allocations per field.
// Each value class — strs, chains, dns — has its own internCap byte
// budget, so an adversarial log full of unique values in one column
// degrades that column to plain per-row copies without growing the
// table without bound or crowding the other classes out.
//
// One table may serve both tails of a log directory (NewLogTails); only
// then does it keep certs, the one class outside the budgets: the
// fingerprint of every x509.log row, which the ssl.log rows parsed after
// it share. It is the same string the row's CertInfo holds, which a
// monitor's roster keeps for good anyway, so the table grows by one map
// entry per certificate. ssl.log chain columns only look fingerprints up
// there; a miss (a certificate not logged yet) falls back to the
// budgeted strs class. The table is not safe for concurrent use: a pair
// sharing one is polled from one goroutine. Every other reader — a lone
// tail, each batch read — keeps a table of its own without certs.
//
// Interned values are shared between records. That is safe because every
// parsed field is immutable by contract — records hand out their strings
// and chain slices read-only (see SSLRecord).
type internTable struct {
	strs   map[string]string
	chains map[string][]ids.Fingerprint
	dns    map[string]dnParts
	// certs is keyed by the fingerprint's maphash under seed, so growing
	// it never re-reads a key string; a lookup compares the bytes, and a
	// collision only costs the sharing.
	certs map[uint64]ids.Fingerprint
	seed  maphash.Seed
	// strBytes, chainBytes and dnBytes are what each class has retained
	// against its internCap budget.
	strBytes, chainBytes, dnBytes int
	// scratch backs unescaping so a field with escapes still interns
	// without an intermediate string.
	scratch []byte

	// The arenas. Per-row strings and chains the table does not keep are
	// cut from shared blocks instead of allocated one by one: connStrs
	// holds connection strings (UIDs, over-budget copies), certStrs the
	// strings of x509.log rows, which live as long as their certificates,
	// and fpBlock chains. Bytes and entries below a block's length are
	// never written again, so whatever was cut from it stays valid for
	// good; a full block is dropped for a fresh one and lives as long as
	// a record cut from it.
	connStrs arena.Strings
	certStrs arena.Strings
	fpBlock  []ids.Fingerprint

	// row and ends are the reused scratch of certRow: the bytes of one
	// x509.log row's strings and where each ends.
	row  []byte
	ends []int
}

// dnParts is a parsed DN column: certmodel.ParseDN of the unescaped
// value. Issuer DNs are long and extremely repetitive (one issuer signs
// thousands of certificates), so the parse itself is memoized, not just
// the storage.
type dnParts struct{ cn, org string }

// internCap bounds the bytes retained per value class.
const internCap = 1 << 20

// fpBlockSize is a chain arena block's size: the chains of ~2 000 rows.
// (A string block of the arena package holds the UIDs of ~900.)
const fpBlockSize = 4096

func newInternTable() *internTable {
	return &internTable{
		strs:   make(map[string]string, 64),
		chains: make(map[string][]ids.Fingerprint, 64),
		dns:    make(map[string]dnParts, 64),
	}
}

// newPairTable is the table a pair of tails shares: it keeps certs.
func newPairTable() *internTable {
	t := newInternTable()
	t.certs = make(map[uint64]ids.Fingerprint, 64)
	t.seed = maphash.MakeSeed()
	return t
}

// cut returns a copy of b cut from the connection string arena.
func (t *internTable) cut(b []byte) string {
	if t == nil {
		return string(b)
	}
	return t.connStrs.Cut(b)
}

// str returns b as a string, shared with every previous occurrence of
// the same bytes while the strs class has budget left, cut from the
// arena once it has not.
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
	if t.strBytes+len(b) > internCap {
		return t.cut(b)
	}
	s := string(b)
	t.strs[s] = s
	t.strBytes += len(s)
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

// fp returns a chain column's fingerprint: the string its x509.log row
// left in certs, else the budgeted strs path.
func (t *internTable) fp(b []byte) ids.Fingerprint {
	if t != nil && t.certs != nil {
		if fp, ok := t.certs[maphash.Bytes(t.seed, b)]; ok && string(fp) == string(b) {
			return fp
		}
	}
	return ids.Fingerprint(t.str(b))
}

// fps decodes a chain-fingerprint column, sharing the whole decoded
// slice across rows presenting the same chain. A chain the memo does not
// hold is cut from the fingerprint arena. Chain slices are read-only
// downstream (records only subslice them), so sharing is safe.
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
	out := t.fpSlice(bytes.Count(b, comma) + 1)
	for {
		i := bytes.IndexByte(b, ',')
		if i < 0 {
			out = append(out, t.fp(b))
			break
		}
		out = append(out, t.fp(b[:i]))
		b = b[i+1:]
	}
	if t != nil && t.chainBytes+len(col) <= internCap {
		t.chains[string(col)] = out
		t.chainBytes += len(col)
	}
	return out
}

// fpSlice returns an empty slice with room for exactly n fingerprints,
// cut from the fingerprint arena when the table has one. Its capacity
// ends at n, so an append by a holder can never reach a neighbour.
func (t *internTable) fpSlice(n int) []ids.Fingerprint {
	if t == nil || n > fpBlockSize/8 {
		return make([]ids.Fingerprint, 0, n)
	}
	if cap(t.fpBlock)-len(t.fpBlock) < n {
		t.fpBlock = make([]ids.Fingerprint, 0, fpBlockSize)
	}
	start := len(t.fpBlock)
	t.fpBlock = t.fpBlock[:start+n]
	return t.fpBlock[start : start : start+n]
}

// dn decodes an issuer DN column into its CN and O parts, memoizing the
// unescape + certmodel.ParseDN by the raw column bytes.
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
	if t.dnBytes+len(b) <= internCap {
		t.dns[string(b)] = dnParts{cn: cn, org: org}
		t.dnBytes += len(b)
	}
	return cn, org
}

// certRow fills c's per-certificate strings from an x509.log row — the
// fingerprint, serial, SAN values and subject DN — and returns the row's
// file ID. They are appended into one reused buffer and cut from one
// string of the certificate arena, with one []string behind all four SAN
// slices when the row has any. A table that keeps certs enters the
// fingerprint there, outside every budget. The subject DN is parsed here
// without a memo: nearly every certificate has its own, so a memo would
// only hash and copy it.
func (t *internTable) certRow(cols [][]byte, c *certmodel.CertInfo) ids.FileID {
	var (
		buf  []byte
		ends []int
	)
	if t != nil {
		buf, ends = t.row[:0], t.ends[:0]
	}
	buf = append(buf, cols[2]...)
	ends = append(ends, len(buf))
	buf = append(buf, unsetOr(cols[4])...)
	ends = append(ends, len(buf))
	buf = append(buf, cols[1]...)
	ends = append(ends, len(buf))
	var nSAN [4]int
	for k, col := range cols[7:11] {
		if isEmptyCol(col) {
			continue
		}
		for {
			i := bytes.IndexByte(col, ',')
			if i < 0 {
				buf = unescapeAppend(buf, col)
				ends = append(ends, len(buf))
				nSAN[k]++
				break
			}
			buf = unescapeAppend(buf, col[:i])
			ends = append(ends, len(buf))
			nSAN[k]++
			col = col[i+1:]
		}
	}
	if subj := cols[6]; !isUnset(subj) {
		buf = unescapeAppend(buf, subj)
	}

	var s string
	if t == nil {
		s = string(buf)
	} else {
		t.row, t.ends = buf, ends
		s = t.certStrs.Cut(buf)
	}
	c.Fingerprint = ids.Fingerprint(s[:ends[0]])
	if t != nil && t.certs != nil && c.Fingerprint != "" {
		t.certs[maphash.String(t.seed, s[:ends[0]])] = c.Fingerprint
	}
	c.SerialHex = s[ends[0]:ends[1]]
	id := ids.FileID(s[ends[1]:ends[2]])
	pos, ends := ends[2], ends[3:]
	if n := len(ends); n > 0 {
		sans := make([]string, n)
		for i, end := range ends {
			sans[i], pos = s[pos:end], end
		}
		dst := [4]*[]string{&c.SANDNS, &c.SANIP, &c.SANEmail, &c.SANURI}
		for k, n := range nSAN {
			if n > 0 {
				*dst[k], sans = sans[:n:n], sans[n:]
			}
		}
	}
	c.SubjectCN, c.SubjectOrg = certmodel.ParseDN(s[pos:])
	return id
}

var comma = []byte{','}
