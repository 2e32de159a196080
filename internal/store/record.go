package store

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
)

// The record codec is the one serialization of what the system persists
// and ships: a connection or a certificate under its sequence, and §3.2
// evidence pairs. Checkpoint segment frames, sensor snapshot frames and
// the disk store's spill frames all carry it. Encoding appends to a
// buffer the caller reuses and allocates nothing; decoding is
// bounds-checked at every step and never trusts a count further than the
// bytes that remain.
//
// Primitives: an unsigned integer is a uvarint, a signed one a zigzag
// varint; a string is its length and its bytes; a list is its length plus
// one and its elements, zero standing for nil, so nil and empty survive a
// round trip apart; a bool is one byte, 0 or 1; a time is its Unix seconds
// (signed), nanoseconds and zone offset in seconds (signed), and decodes
// to UTC at offset zero and to a fixed zone otherwise — the same calendar
// fields, which is what the month-bucketed reports read. A fingerprint is a zero
// byte and 32 raw bytes when — and only when — it is 64 lowercase hex
// characters (a SHA-256, which is what they all are in practice);
// anything else travels as its length plus one and its bytes.
//
// The bytes are canonical: a value has exactly one encoding, and the
// decoder refuses every other spelling of it (a padded varint, a bool
// byte of 2, a literal fingerprint that should have been packed, a pair
// repeating its issuer in full), so encode(decode(b)) == b for every b
// the decoder accepts.

// AppendString appends s as a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendTime appends t as Unix seconds, nanoseconds and zone offset.
func AppendTime(b []byte, t time.Time) []byte {
	b = binary.AppendVarint(b, t.Unix())
	b = binary.AppendUvarint(b, uint64(t.Nanosecond()))
	_, offset := t.Zone()
	return binary.AppendVarint(b, int64(offset))
}

// AppendFingerprint appends fp packed to 32 raw bytes when it is 64
// lowercase hex characters, literally otherwise.
func AppendFingerprint(b []byte, fp ids.Fingerprint) []byte {
	if len(fp) == 64 {
		var packed [33]byte // the zero tag, then the digest
		var bad byte
		for i := 0; i < 32; i++ {
			hi, lo := unhex[fp[2*i]], unhex[fp[2*i+1]]
			bad |= hi | lo
			packed[1+i] = hi<<4 | lo
		}
		if bad <= 0xf {
			return append(b, packed[:]...)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(fp))+1)
	return append(b, fp...)
}

// unhex maps a lowercase hex digit to its value and every other byte
// above 0xf.
var unhex = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i, c := range "0123456789abcdef" {
		t[c] = byte(i)
	}
	return t
}()

// AppendFingerprints appends a chain, nil and empty apart.
func AppendFingerprints(b []byte, fps []ids.Fingerprint) []byte {
	if fps == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(fps))+1)
	for _, fp := range fps {
		b = AppendFingerprint(b, fp)
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(ss))+1)
	for _, s := range ss {
		b = AppendString(b, s)
	}
	return b
}

// AppendConn appends one connection under its sequence.
func AppendConn(b []byte, rec *core.ConnRecord, seq uint64) []byte {
	b = binary.AppendUvarint(b, seq)
	b = AppendTime(b, rec.TS)
	b = AppendString(b, string(rec.UID))
	b = AppendString(b, rec.OrigIP)
	b = binary.AppendUvarint(b, uint64(rec.OrigPort))
	b = AppendString(b, rec.RespIP)
	b = binary.AppendUvarint(b, uint64(rec.RespPort))
	b = AppendString(b, rec.Version)
	b = AppendString(b, rec.SNI)
	b = AppendBool(b, rec.Established)
	b = AppendFingerprints(b, rec.ServerChain)
	b = AppendFingerprints(b, rec.ClientChain)
	b = AppendString(b, rec.JA3)
	b = AppendString(b, rec.JA4)
	return binary.AppendVarint(b, rec.Weight)
}

// AppendCert appends one certificate under its sequence, every field of
// it, the raw encoding included.
func AppendCert(b []byte, c *certmodel.CertInfo, seq uint64) []byte {
	b = binary.AppendUvarint(b, seq)
	b = AppendFingerprint(b, c.Fingerprint)
	b = AppendString(b, c.SerialHex)
	b = binary.AppendVarint(b, int64(c.Version))
	b = AppendString(b, c.IssuerCN)
	b = AppendString(b, c.IssuerOrg)
	b = AppendString(b, c.SubjectCN)
	b = AppendString(b, c.SubjectOrg)
	b = appendStrings(b, c.SANDNS)
	b = appendStrings(b, c.SANIP)
	b = appendStrings(b, c.SANEmail)
	b = appendStrings(b, c.SANURI)
	b = AppendTime(b, c.NotBefore)
	b = AppendTime(b, c.NotAfter)
	b = binary.AppendVarint(b, int64(c.KeyAlg))
	b = binary.AppendVarint(b, int64(c.KeyBits))
	b = AppendBool(b, c.SelfSigned)
	if c.DER == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(c.DER))+1)
	return append(b, c.DER...)
}

// AppendConns appends a batch: a count, then each connection under the
// sequence aligned with it.
func AppendConns(b []byte, conns []core.ConnRecord, seqs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(conns)))
	for i := range conns {
		b = AppendConn(b, &conns[i], seqs[i])
	}
	return b
}

// AppendCerts appends a batch: a count, then each certificate under the
// sequence aligned with it.
func AppendCerts(b []byte, certs []*certmodel.CertInfo, seqs []uint64) []byte {
	b = binary.AppendUvarint(b, uint64(len(certs)))
	for i, c := range certs {
		b = AppendCert(b, c, seqs[i])
	}
	return b
}

// Evidence pair tags: which relation the pair belongs to, and whether it
// repeats the issuer of the pair before it in the same list — in which
// case the issuer is not written again.
const (
	pairContradicted = 1 << iota
	pairSameIssuer
)

// AppendPairs appends a list of §3.2 evidence pairs in the order given.
// Runs of one issuer — all there is in a sorted list — spell it once.
func AppendPairs(b []byte, pairs []interception.Pair) []byte {
	b = binary.AppendUvarint(b, uint64(len(pairs)))
	for i := range pairs {
		p := &pairs[i]
		var tag byte
		if p.Domain != "" {
			tag = pairContradicted
		}
		if i > 0 && p.Issuer == pairs[i-1].Issuer {
			b = append(b, tag|pairSameIssuer)
		} else {
			b = AppendString(append(b, tag), p.Issuer)
		}
		if p.Domain != "" {
			b = AppendString(b, p.Domain)
		} else {
			b = AppendFingerprint(b, p.Leaf)
		}
	}
	return b
}

// Decoder reads what the Append functions wrote. The payload is copied
// once, into a string the decoded strings are slices of, so the caller's
// buffer is free for the next frame as soon as NewDecoder returns and a
// record costs no allocation per literal string. The first failure sticks:
// every later read returns a zero value, every Count zero, and End reports
// it, so callers decode a whole frame and check once.
type Decoder struct {
	s   string
	off int
	err error
}

// NewDecoder starts decoding payload.
func NewDecoder(payload []byte) *Decoder {
	return &Decoder{s: string(payload)}
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at byte %d", ErrCorrupt, what, d.off)
	}
	d.off = len(d.s)
}

// End reports the first decoding failure, or bytes left over behind the
// last value read.
func (d *Decoder) End() error {
	if d.err == nil && d.off != len(d.s) {
		d.fail("trailing bytes")
	}
	return d.err
}

// Uvarint reads an unsigned integer in its shortest encoding.
func (d *Decoder) Uvarint() uint64 {
	var x uint64
	for i, shift := 0, uint(0); d.off < len(d.s) && i < binary.MaxVarintLen64; i, shift = i+1, shift+7 {
		c := d.s[d.off]
		d.off++
		if c < 0x80 {
			if (c == 0 && i > 0) || (i == binary.MaxVarintLen64-1 && c > 1) {
				break
			}
			return x | uint64(c)<<shift
		}
		x |= uint64(c&0x7f) << shift
	}
	d.fail("malformed varint")
	return 0
}

// Varint reads a signed (zigzag) integer.
func (d *Decoder) Varint() int64 {
	ux := d.Uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// Count reads a record count, refusing one the bytes that remain cannot
// hold at min bytes a record: what a caller allocates for it is bounded by
// the frame it was handed.
func (d *Decoder) Count(min int) int {
	n := d.Uvarint()
	if n > uint64(len(d.s)-d.off)/uint64(min) {
		d.fail("count exceeds frame")
		return 0
	}
	return int(n)
}

// list reads a length-plus-one prefix: the length, never more than the
// bytes that remain, and whether the value is nil.
func (d *Decoder) list() (n int, null bool) {
	v := d.Uvarint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(d.s)-d.off) {
		d.fail("count exceeds frame")
		return 0, true
	}
	return int(v - 1), false
}

func (d *Decoder) take(n int) string {
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	return d.take(d.Count(1))
}

// Bool reads one byte, 0 or 1.
func (d *Decoder) Bool() bool {
	if d.off >= len(d.s) || d.s[d.off] > 1 {
		d.fail("malformed bool")
		return false
	}
	d.off++
	return d.s[d.off-1] == 1
}

// Time reads seconds, nanoseconds and zone offset.
func (d *Decoder) Time() time.Time {
	sec, nsec, offset := d.Varint(), d.Uvarint(), d.Varint()
	if nsec >= 1e9 || offset <= -86400 || offset >= 86400 {
		d.fail("time out of range")
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec)).UTC()
	if offset != 0 {
		t = t.In(time.FixedZone("", int(offset)))
	}
	return t
}

// Fingerprint reads a packed or literal fingerprint.
func (d *Decoder) Fingerprint() ids.Fingerprint {
	n, packed := d.list()
	if !packed {
		fp := d.take(n)
		if n == 64 {
			packable := true
			for i := 0; i < 64 && packable; i++ {
				packable = unhex[fp[i]] <= 0xf
			}
			if packable {
				d.fail("literal fingerprint that packs")
				return ""
			}
		}
		return ids.Fingerprint(fp)
	}
	if len(d.s)-d.off < 32 {
		d.fail("short fingerprint")
		return ""
	}
	const digits = "0123456789abcdef"
	var hex [64]byte
	for i, c := range []byte(d.take(32)) {
		hex[2*i], hex[2*i+1] = digits[c>>4], digits[c&0xf]
	}
	return ids.Fingerprint(hex[:])
}

// Fingerprints reads a chain.
func (d *Decoder) Fingerprints() []ids.Fingerprint {
	n, null := d.list()
	if null {
		return nil
	}
	fps := make([]ids.Fingerprint, n)
	for i := range fps {
		fps[i] = d.Fingerprint()
	}
	return fps
}

func (d *Decoder) strings() []string {
	n, null := d.list()
	if null {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.String()
	}
	return ss
}

func (d *Decoder) port() uint16 {
	p := d.Uvarint()
	if p > 0xffff {
		d.fail("port out of range")
	}
	return uint16(p)
}

// Conn reads one connection into rec and returns its sequence.
func (d *Decoder) Conn(rec *core.ConnRecord) (seq uint64) {
	seq = d.Uvarint()
	rec.TS = d.Time()
	rec.UID = ids.UID(d.String())
	rec.OrigIP = d.String()
	rec.OrigPort = d.port()
	rec.RespIP = d.String()
	rec.RespPort = d.port()
	rec.Version = d.String()
	rec.SNI = d.String()
	rec.Established = d.Bool()
	rec.ServerChain = d.Fingerprints()
	rec.ClientChain = d.Fingerprints()
	rec.JA3 = d.String()
	rec.JA4 = d.String()
	rec.Weight = d.Varint()
	return seq
}

// MinConnBytes and MinCertBytes are the fewest bytes a record encodes
// to, for Count.
const (
	MinConnBytes = 17
	MinCertBytes = 22
)

// Cert reads one certificate and its sequence.
func (d *Decoder) Cert() (c *certmodel.CertInfo, seq uint64) {
	c = &certmodel.CertInfo{}
	seq = d.Uvarint()
	c.Fingerprint = d.Fingerprint()
	c.SerialHex = d.String()
	c.Version = int(d.Varint())
	c.IssuerCN = d.String()
	c.IssuerOrg = d.String()
	c.SubjectCN = d.String()
	c.SubjectOrg = d.String()
	c.SANDNS = d.strings()
	c.SANIP = d.strings()
	c.SANEmail = d.strings()
	c.SANURI = d.strings()
	c.NotBefore = d.Time()
	c.NotAfter = d.Time()
	c.KeyAlg = certmodel.KeyAlg(d.Varint())
	c.KeyBits = int(d.Varint())
	c.SelfSigned = d.Bool()
	if n, null := d.list(); !null {
		c.DER = []byte(d.take(n))
	}
	return c, seq
}

// Conns reads a batch AppendConns wrote.
func (d *Decoder) Conns() ([]core.ConnRecord, []uint64) {
	n := d.Count(MinConnBytes)
	conns, seqs := make([]core.ConnRecord, n), make([]uint64, n)
	for i := range conns {
		seqs[i] = d.Conn(&conns[i])
	}
	return conns, seqs
}

// Certs reads a batch AppendCerts wrote.
func (d *Decoder) Certs() ([]*certmodel.CertInfo, []uint64) {
	n := d.Count(MinCertBytes)
	certs, seqs := make([]*certmodel.CertInfo, n), make([]uint64, n)
	for i := range certs {
		certs[i], seqs[i] = d.Cert()
	}
	return certs, seqs
}

// Pairs reads a list of evidence pairs.
func (d *Decoder) Pairs() []interception.Pair {
	pairs := make([]interception.Pair, d.Count(2))
	for i := range pairs {
		p := &pairs[i]
		if d.off >= len(d.s) || d.s[d.off] > pairContradicted|pairSameIssuer {
			d.fail("malformed pair tag")
			return nil
		}
		tag := d.s[d.off]
		d.off++
		if tag&pairSameIssuer != 0 {
			if i == 0 {
				d.fail("first pair without issuer")
				return nil
			}
			p.Issuer = pairs[i-1].Issuer
		} else if p.Issuer = d.String(); i > 0 && p.Issuer == pairs[i-1].Issuer {
			d.fail("pair repeats its issuer in full")
			return nil
		}
		if tag&pairContradicted == 0 {
			p.Leaf = d.Fingerprint()
		} else if p.Domain = d.String(); p.Domain == "" {
			d.fail("contradicted pair without domain")
			return nil
		}
	}
	if d.err != nil {
		return nil
	}
	return pairs
}
