// Package ids provides the small identity primitives shared by every layer
// of the reproduction: deterministic random-number streams, Zeek-style
// connection UIDs, certificate fingerprints, and /24 subnet keys.
//
// Determinism is a design requirement (DESIGN.md §6): the whole pipeline —
// workload generation, Zeek log emission, analysis — must be reproducible
// from a single seed so that experiments can be compared run-to-run. All
// randomness in the repository flows through RNG.
package ids

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/netip"
)

// RNG is a deterministic pseudo-random stream based on splitmix64. It is
// intentionally not crypto-grade: it exists to make dataset generation
// reproducible, not to produce secrets. The zero value is a valid stream
// seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Fork derives an independent child stream from the parent using a label,
// so that adding draws to one subsystem never perturbs another. The parent
// is not advanced.
func (r *RNG) Fork(label string) *RNG { return &RNG{state: forkState(r.state, label)} }

// ForkBytes is Fork with the label given as bytes. Like Fork it inlines,
// so a child stream that does not outlive its caller stays on the stack.
func (r *RNG) ForkBytes(label []byte) *RNG { return &RNG{state: forkState(r.state, label)} }

func forkState[T string | []byte](state uint64, label T) uint64 {
	var buf [128]byte
	h := sha256.Sum256(append(binary.BigEndian.AppendUint64(buf[:0], state), label...))
	return binary.BigEndian.Uint64(h[:8])
}

// Uint64 returns the next 64-bit value (splitmix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("ids: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n) for int64 n. It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("ids: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Pick returns a uniformly chosen element of xs. It panics on empty input.
func Pick[T any](r *RNG, xs []T) T {
	return xs[r.Intn(len(xs))]
}

// WeightedPick returns the index selected from the weight vector. Weights
// need not be normalized; non-positive weights are treated as zero. If all
// weights are zero it returns 0.
func WeightedPick(r *RNG, weights []float64) int {
	return WeightedPickBy(r, weights, func(w *float64) float64 { return *w })
}

// WeightedPickBy is WeightedPick over weight(&xs[i]), for callers whose
// weights live in a field: the same draw and the same sums in the same
// order, without building the weight vector.
func WeightedPickBy[T any](r *RNG, xs []T, weight func(*T) float64) int {
	var total float64
	for i := range xs {
		if w := weight(&xs[i]); w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return 0
	}
	x := r.Float64() * total
	for i := range xs {
		w := weight(&xs[i])
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(xs) - 1
}

// uidAlphabet matches Zeek's base-62 connection UID alphabet.
const uidAlphabet = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

// UID is a Zeek-style connection identifier, e.g. "CJ3xTn1c4Zw7TozN3".
type UID string

// NewUID derives a UID from the stream. The leading 'C' mirrors Zeek's
// convention for connection UIDs.
func NewUID(r *RNG) UID { return UID(AppendUID(make([]byte, 0, UIDLen), r)) }

// UIDLen is the length of every UID NewUID derives.
const UIDLen = 18

// AppendUID appends the UID NewUID would derive from r to dst, so a
// caller that keeps many UIDs can cut them from one block.
func AppendUID(buf []byte, r *RNG) []byte {
	buf = append(buf, 'C')
	v := r.Uint64()
	w := r.Uint64()
	for i := 0; i < 9; i++ {
		buf = append(buf, uidAlphabet[v%62])
		v /= 62
	}
	for i := 0; i < 8; i++ {
		buf = append(buf, uidAlphabet[w%62])
		w /= 62
	}
	return buf
}

// FileID is a Zeek-style file/certificate identifier ("F..." prefix), used
// to link x509.log rows back to ssl.log certificate chains.
type FileID string

// NewFileID derives a FileID deterministically from a certificate
// fingerprint, so the same certificate observed twice yields the same ID.
func NewFileID(fp Fingerprint) FileID {
	return FileID("F" + string(fp[:17]))
}

// Fingerprint is the lowercase hex SHA-256 of a certificate's DER bytes —
// the canonical identity for "unique certificates" throughout the paper.
type Fingerprint string

// FingerprintBytes fingerprints raw DER bytes (or, on the bulk path, a
// synthetic identity).
func FingerprintBytes(der []byte) Fingerprint { return hexFingerprint(sha256.Sum256(der)) }

// AppendFingerprint appends FingerprintBytes(der)'s hex digits to dst.
func AppendFingerprint(dst, der []byte) []byte {
	sum := sha256.Sum256(der)
	return hex.AppendEncode(dst, sum[:])
}

// FingerprintString fingerprints an arbitrary string key.
func FingerprintString(s string) Fingerprint { return hexFingerprint(sha256.Sum256([]byte(s))) }

// hexFingerprint hex-encodes a digest on the stack, so the returned
// string is the only allocation.
func hexFingerprint(sum [sha256.Size]byte) Fingerprint {
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return Fingerprint(h[:])
}

// Valid reports whether the fingerprint looks like a SHA-256 hex digest.
func (f Fingerprint) Valid() bool {
	if len(f) != 64 {
		return false
	}
	for i := 0; i < len(f); i++ {
		c := f[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Short returns an abbreviated form for logs and tables.
func (f Fingerprint) Short() string {
	if len(f) < 12 {
		return string(f)
	}
	return string(f[:12])
}

// SubnetKey identifies a /24 (IPv4) or /64 (IPv6) subnet; the paper's
// Table 6 counts certificate spread across /24 subnets.
type SubnetKey string

// SubnetOf maps an address to its subnet key.
func SubnetOf(addr netip.Addr) SubnetKey {
	if addr.Is4() {
		p, _ := addr.Prefix(24)
		return SubnetKey(p.String())
	}
	p, _ := addr.Prefix(64)
	return SubnetKey(p.String())
}

// SubnetOfString is SubnetOf for textual addresses; invalid input yields a
// key that still groups identical strings together rather than an error,
// because log files may contain malformed endpoints we still need to count.
func SubnetOfString(s string) SubnetKey {
	addr, err := netip.ParseAddr(s)
	if err != nil {
		return SubnetKey("invalid/" + s)
	}
	return SubnetOf(addr)
}

// HashString64 is a stable 64-bit FNV-1a hash used for cheap sharding
// decisions in the analyzer.
func HashString64(s string) uint64 { return hash64(s) }

// HashBytes64 is HashString64 over bytes: callers that build a key with
// append hash it without converting it to a string.
func HashBytes64(b []byte) uint64 { return hash64(b) }

// HashMore64 continues a hash over more bytes: HashMore64(HashString64(a),
// b) is HashString64(a + b), so a key's fixed prefix is hashed once.
func HashMore64(h uint64, b []byte) uint64 {
	const prime64 = 1099511628211
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}

func hash64[T string | []byte](s T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Seq formats a zero-padded sequence label ("c000042") used to synthesize
// stable entity member names.
func Seq(prefix string, n int) string { return fmt.Sprintf("%s%06d", prefix, n) }
