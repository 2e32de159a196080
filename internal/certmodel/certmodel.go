// Package certmodel defines the certificate metadata model used throughout
// the reproduction, mirroring the fields Zeek's x509.log extracts from
// certificates exchanged during TLS negotiation (§3.1): serial number,
// issuer, subject, validity window, SANs, and key parameters.
//
// Two construction paths exist:
//
//   - the wire path builds real DER certificates (see gen.go) and parses
//     them back with ParseDER, proving the model round-trips through
//     genuine X.509 encoding; and
//   - the bulk path fills CertInfo directly from the workload generator,
//     carrying a synthetic fingerprint, so million-certificate experiments
//     do not pay for public-key cryptography.
//
// Both paths feed the identical analysis code.
package certmodel

import (
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/ids"
)

// KeyAlg enumerates public-key algorithms the analyses care about.
type KeyAlg int

const (
	KeyUnknown KeyAlg = iota
	KeyRSA
	KeyECDSA
)

// String implements fmt.Stringer.
func (k KeyAlg) String() string {
	switch k {
	case KeyRSA:
		return "rsa"
	case KeyECDSA:
		return "ecdsa"
	default:
		return "unknown"
	}
}

// CertInfo is the per-certificate record, one row of x509.log.
type CertInfo struct {
	// Fingerprint is the SHA-256 of the DER bytes (wire path) or of the
	// synthetic identity (bulk path); it is the "unique certificate" key.
	Fingerprint ids.Fingerprint

	// SerialHex is the certificate serial number in uppercase hex without
	// leading zero bytes stripped — exactly as issued, because §5.1.2's
	// dummy-serial analysis depends on the literal value ("00", "024680").
	SerialHex string

	// Version is the X.509 version number (1 or 3 in practice; §5.1.1
	// flags version-1 certificates from dummy issuers).
	Version int

	// Issuer distinguished-name components.
	IssuerCN  string
	IssuerOrg string

	// Subject distinguished-name components.
	SubjectCN  string
	SubjectOrg string

	// SAN values by general-name type (OpenSSL's GEN_DNS / GEN_IPADD /
	// GEN_EMAIL / GEN_URI; §6.1.2).
	SANDNS   []string
	SANIP    []string
	SANEmail []string
	SANURI   []string

	// Validity window. The paper's §5.3.1 certificates have NotBefore
	// AFTER NotAfter; the model must represent that faithfully, so no
	// invariant is enforced here.
	NotBefore time.Time
	NotAfter  time.Time

	// Key parameters.
	KeyAlg  KeyAlg
	KeyBits int

	// SelfSigned reports issuer DN == subject DN.
	SelfSigned bool

	// DER holds the raw encoding when the certificate came off the wire;
	// nil on the bulk path.
	DER []byte `json:"-"`
}

// ValidityDays returns NotAfter−NotBefore in whole days; negative for
// incorrect-date certificates (§5.3.1).
func (c *CertInfo) ValidityDays() int64 {
	return int64(c.NotAfter.Sub(c.NotBefore) / (24 * time.Hour))
}

// HasIncorrectDates reports a not_valid_before that does not precede
// not_valid_after — the Figure 3 misconfiguration. Identical timestamps
// also qualify (the paper's ayoba.me case).
func (c *CertInfo) HasIncorrectDates() bool {
	return !c.NotBefore.Before(c.NotAfter)
}

// ExpiredAt reports whether the certificate is expired at t. Certificates
// with incorrect dates are treated as expired whenever t is past NotAfter,
// matching the validation behaviour the paper probes.
func (c *CertInfo) ExpiredAt(t time.Time) bool {
	return t.After(c.NotAfter)
}

// DaysExpiredAt returns how many whole days past NotAfter t is (0 when not
// expired) — the x-axis of Figure 5.
func (c *CertInfo) DaysExpiredAt(t time.Time) int64 {
	if !c.ExpiredAt(t) {
		return 0
	}
	return int64(t.Sub(c.NotAfter) / (24 * time.Hour))
}

// WeakKey reports keys disallowed by NIST SP 800-57 (RSA < 2048 bits after
// 2013-12-31), which §5.1.1 flags for dummy-issuer certificates.
func (c *CertInfo) WeakKey() bool {
	return c.KeyAlg == KeyRSA && c.KeyBits > 0 && c.KeyBits < 2048
}

// MissingIssuer reports an empty issuer organization AND common name —
// the Private-MissingIssuer category of §4.2.
func (c *CertInfo) MissingIssuer() bool {
	return strings.TrimSpace(c.IssuerOrg) == "" && strings.TrimSpace(c.IssuerCN) == ""
}

// IssuerKey returns the string the analyses group "same issuer" by: the
// organization when present, else the CN, else the empty string.
func (c *CertInfo) IssuerKey() string {
	if o := strings.TrimSpace(c.IssuerOrg); o != "" {
		return o
	}
	return strings.TrimSpace(c.IssuerCN)
}

// IssuerDN renders the issuer as a Zeek-style distinguished name.
func (c *CertInfo) IssuerDN() string { return FormatDN(c.IssuerCN, c.IssuerOrg) }

// SubjectDN renders the subject as a Zeek-style distinguished name.
func (c *CertInfo) SubjectDN() string { return FormatDN(c.SubjectCN, c.SubjectOrg) }

// SANSummary joins all SAN values for logging, sorted per type.
func (c *CertInfo) SANSummary() string { return string(c.AppendSANSummary(nil)) }

// AppendSANSummary is SANSummary appended to b: "dns=a|b;ip=c", each
// type's values sorted, empty types omitted.
func (c *CertInfo) AppendSANSummary(b []byte) []byte {
	start := len(b)
	for _, t := range [...]struct {
		prefix string
		vals   []string
	}{{"dns=", c.SANDNS}, {"ip=", c.SANIP}, {"email=", c.SANEmail}, {"uri=", c.SANURI}} {
		if len(t.vals) == 0 {
			continue
		}
		if len(b) > start {
			b = append(b, ';')
		}
		b = append(b, t.prefix...)
		vals := t.vals
		if !slices.IsSorted(vals) {
			// Sort a copy; up to eight values stay on the stack.
			var tmp [8]string
			vals = append(tmp[:0], vals...)
			slices.Sort(vals)
		}
		for i, v := range vals {
			if i > 0 {
				b = append(b, '|')
			}
			b = append(b, v...)
		}
	}
	return b
}

// FormatDN renders "CN=x,O=y" in Zeek's subject/issuer field style,
// omitting empty components. Values containing commas are escaped.
func FormatDN(cn, org string) string { return string(AppendDN(nil, cn, org)) }

// AppendDN is FormatDN appended to b — the one formatting path behind
// FormatDN, the x509.log writer and SyntheticFingerprint.
func AppendDN(b []byte, cn, org string) []byte {
	if cn != "" {
		b = append(b, "CN="...)
		b = appendEscapedDN(b, cn)
	}
	if org != "" {
		if cn != "" {
			b = append(b, ',')
		}
		b = append(b, "O="...)
		b = appendEscapedDN(b, org)
	}
	return b
}

// ParseDN inverts FormatDN, tolerating unknown attribute types and
// whitespace around keys. The last CN and O win. A value without escapes
// is returned as a substring of dn, so an unescaped DN parses without
// allocating.
func ParseDN(dn string) (cn, org string) {
	for len(dn) > 0 {
		part, rest := cutDN(dn)
		dn = rest
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		switch dnKey(k) {
		case "CN":
			cn = unescapeDN(v)
		case "O":
			org = unescapeDN(v)
		}
	}
	return cn, org
}

// cutDN splits dn at its first unescaped comma: a backslash escapes the
// byte after it, and a trailing lone backslash is literal.
func cutDN(dn string) (part, rest string) {
	for i := 0; i < len(dn); i++ {
		switch dn[i] {
		case '\\':
			i++
		case ',':
			return dn[:i], dn[i+1:]
		}
	}
	return dn, ""
}

// dnKey normalizes an attribute type: trimmed and upper-cased. ASCII keys
// — every key FormatDN writes — are compared without allocating.
func dnKey(k string) string {
	k = strings.TrimSpace(k)
	for i := 0; i < len(k); i++ {
		if k[i] >= utf8.RuneSelf {
			return strings.ToUpper(k)
		}
	}
	switch {
	case len(k) == 2 && k[0]|0x20 == 'c' && k[1]|0x20 == 'n':
		return "CN"
	case len(k) == 1 && k[0]|0x20 == 'o':
		return "O"
	}
	return ""
}

// appendEscapedDN appends s with a backslash before each backslash and
// comma, copying the runs between them whole.
func appendEscapedDN(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\\' || c == ',' {
			b = append(append(b, s[start:i]...), '\\')
			start = i
		}
	}
	return append(b, s[start:]...)
}

// unescapeDN drops each escaping backslash; s itself is returned when it
// holds none.
func unescapeDN(s string) string {
	if strings.IndexByte(s, '\\') < 0 {
		return s
	}
	b := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
		}
		b = append(b, s[i])
	}
	return string(b)
}

// SyntheticFingerprint derives the bulk-path identity for a certificate
// from its distinguishing content, so that regenerating the same workload
// yields the same fingerprints.
func SyntheticFingerprint(c *CertInfo, discriminator string) ids.Fingerprint {
	var buf [512]byte
	return ids.FingerprintBytes(append(AppendSyntheticIdentity(buf[:0], c), discriminator...))
}

// AppendSyntheticIdentity appends the content SyntheticFingerprint hashes
// ahead of the discriminator: serial, issuer DN, subject DN, SAN summary,
// validity bounds and key parameters, one per line. A caller that builds
// its discriminator as bytes appends it and fingerprints the result with
// ids.FingerprintBytes.
func AppendSyntheticIdentity(b []byte, c *CertInfo) []byte {
	b = append(b, c.SerialHex...)
	b = append(b, '\n')
	b = AppendDN(b, c.IssuerCN, c.IssuerOrg)
	b = append(b, '\n')
	b = AppendDN(b, c.SubjectCN, c.SubjectOrg)
	b = append(b, '\n')
	b = c.AppendSANSummary(b)
	b = append(b, '\n')
	b = strconv.AppendInt(b, c.NotBefore.Unix(), 10)
	b = append(b, '\n')
	b = strconv.AppendInt(b, c.NotAfter.Unix(), 10)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(c.KeyAlg), 10)
	b = append(b, '\n')
	b = strconv.AppendInt(b, int64(c.KeyBits), 10)
	return append(b, '\n')
}

// Clock converts an absolute day offset from the study epoch into a time;
// the workload generator positions events on study days 0..~700.
var StudyEpoch = time.Date(2022, time.May, 1, 0, 0, 0, 0, time.UTC)

// DayToTime maps a study-day offset (day 0 = 2022-05-01) to a UTC time.
// A UTC day is always 24 hours, so within a duration's range the offset
// is added as one: the same time.Time as StudyEpoch.AddDate(0, 0, day)
// without AddDate's calendar arithmetic, which the generator would pay
// on every row.
func DayToTime(day int) time.Time {
	const maxDays = 100_000 // well inside time.Duration's ±292 years
	if day < -maxDays || day > maxDays || StudyEpoch.Location() != time.UTC {
		return StudyEpoch.AddDate(0, 0, day)
	}
	return StudyEpoch.Add(time.Duration(day) * 24 * time.Hour)
}

// TimeToMonth formats the Figure 1 month key.
func TimeToMonth(t time.Time) string { return t.Format("2006-01") }
