package certmodel

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/ids"
	"repro/internal/race"
)

// The reference implementations below are the string-building forms the
// append forms replaced. They stay here as the oracle the append forms
// are held to, byte for byte.

func refFormatDN(cn, org string) string {
	var parts []string
	if cn != "" {
		parts = append(parts, "CN="+refEscapeDN(cn))
	}
	if org != "" {
		parts = append(parts, "O="+refEscapeDN(org))
	}
	return strings.Join(parts, ",")
}

func refEscapeDN(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, ",", `\,`)
}

func refParseDN(dn string) (cn, org string) {
	for _, part := range refSplitDN(dn) {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			continue
		}
		switch strings.ToUpper(strings.TrimSpace(k)) {
		case "CN":
			cn = refUnescapeDN(v)
		case "O":
			org = refUnescapeDN(v)
		}
	}
	return cn, org
}

func refUnescapeDN(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			b.WriteByte(s[i])
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

func refSplitDN(dn string) []string {
	var parts []string
	var cur strings.Builder
	for i := 0; i < len(dn); i++ {
		switch {
		case dn[i] == '\\' && i+1 < len(dn):
			cur.WriteByte(dn[i])
			i++
			cur.WriteByte(dn[i])
		case dn[i] == ',':
			parts = append(parts, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(dn[i])
		}
	}
	if cur.Len() > 0 {
		parts = append(parts, cur.String())
	}
	return parts
}

func refSANSummary(c *CertInfo) string {
	parts := make([]string, 0, 4)
	add := func(prefix string, vals []string) {
		if len(vals) == 0 {
			return
		}
		vs := append([]string(nil), vals...)
		sort.Strings(vs)
		parts = append(parts, prefix+strings.Join(vs, "|"))
	}
	add("dns=", c.SANDNS)
	add("ip=", c.SANIP)
	add("email=", c.SANEmail)
	add("uri=", c.SANURI)
	return strings.Join(parts, ";")
}

func refSyntheticFingerprint(c *CertInfo, discriminator string) ids.Fingerprint {
	var b strings.Builder
	b.WriteString(c.SerialHex)
	b.WriteByte('\n')
	b.WriteString(refFormatDN(c.IssuerCN, c.IssuerOrg))
	b.WriteByte('\n')
	b.WriteString(refFormatDN(c.SubjectCN, c.SubjectOrg))
	b.WriteByte('\n')
	b.WriteString(refSANSummary(c))
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%d\n%d\n%d\n%d\n", c.NotBefore.Unix(), c.NotAfter.Unix(), c.KeyAlg, c.KeyBits)
	b.WriteString(discriminator)
	return ids.FingerprintString(b.String())
}

// dnAtoms are the pieces random DNs are built from: every byte ParseDN
// treats specially, keys in every case with whitespace around them,
// unknown attribute types, and non-ASCII whitespace and letters.
var dnAtoms = []string{
	"CN", "cn", "Cn", "O", "o", " CN ", "\tO", "OU", "C", "L", "=", ",", `\`, `\,`, `\\`,
	" ", "a", "x y", "é", " ", "\u0085", "ſ", "K", "Example, Inc.", "host.campus.edu",
}

func randomDN(rng *ids.RNG) string {
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(ids.Pick(rng, dnAtoms))
	}
	return b.String()
}

// TestParseDNMatchesReference holds ParseDN to the reference parser on
// random DNs built from dnAtoms and on the hand-picked edge cases.
func TestParseDNMatchesReference(t *testing.T) {
	check := func(dn string) {
		t.Helper()
		cn, org := ParseDN(dn)
		wantCN, wantOrg := refParseDN(dn)
		if cn != wantCN || org != wantOrg {
			t.Fatalf("ParseDN(%q) = (%q, %q), want (%q, %q)", dn, cn, org, wantCN, wantOrg)
		}
	}
	for _, dn := range []string{
		"", ",", `\`, `CN=a\`, `CN=a\,b,O=c`, `CN=a\\,O=b`, `CN=x,CN=y`, " cn = v ,  o=w",
		"OU=unit,CN=c,L=town,O=org", "CN", "=", "CN==x", `C\N=x`, " CN =x", "ſ=x",
		"CN=host, with comma", `O=Org\with backslash`,
	} {
		check(dn)
	}
	rng := ids.NewRNG(7)
	for i := 0; i < 50000; i++ {
		check(randomDN(rng))
	}
}

// TestAppendFormsMatchReference holds AppendDN/FormatDN, SANSummary and
// SyntheticFingerprint to their string-building references.
func TestAppendFormsMatchReference(t *testing.T) {
	rng := ids.NewRNG(9)
	vals := func() []string {
		var out []string
		for n := rng.Intn(4); n > 0; n-- {
			out = append(out, randomDN(rng))
		}
		return out
	}
	for i := 0; i < 20000; i++ {
		c := &CertInfo{
			SerialHex: fmt.Sprintf("%X", rng.Uint64()>>uint(rng.Intn(64))),
			IssuerCN:  randomDN(rng), IssuerOrg: randomDN(rng),
			SubjectCN: randomDN(rng), SubjectOrg: randomDN(rng),
			SANDNS: vals(), SANIP: vals(), SANEmail: vals(), SANURI: vals(),
			NotBefore: time.Unix(rng.Int63n(1<<36)-1<<35, 0),
			NotAfter:  time.Unix(rng.Int63n(1<<36)-1<<35, 0),
			KeyAlg:    KeyAlg(rng.Intn(3)), KeyBits: rng.Intn(5000),
		}
		if got, want := FormatDN(c.IssuerCN, c.IssuerOrg), refFormatDN(c.IssuerCN, c.IssuerOrg); got != want {
			t.Fatalf("FormatDN(%q, %q) = %q, want %q", c.IssuerCN, c.IssuerOrg, got, want)
		}
		if got, want := c.SANSummary(), refSANSummary(c); got != want {
			t.Fatalf("SANSummary = %q, want %q", got, want)
		}
		disc := randomDN(rng)
		if got, want := SyntheticFingerprint(c, disc), refSyntheticFingerprint(c, disc); got != want {
			t.Fatalf("SyntheticFingerprint = %s, want %s", got, want)
		}
	}
}

func FuzzParseDN(f *testing.F) {
	for _, s := range []string{"CN=a,O=b", `CN=a\,b,O=c\\`, " cn = x ,OU=y", `\`, "ſ=x"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, dn string) {
		cn, org := ParseDN(dn)
		wantCN, wantOrg := refParseDN(dn)
		if cn != wantCN || org != wantOrg {
			t.Fatalf("ParseDN(%q) = (%q, %q), want (%q, %q)", dn, cn, org, wantCN, wantOrg)
		}
		if got, want := FormatDN(cn, org), refFormatDN(cn, org); got != want {
			t.Fatalf("FormatDN(%q, %q) = %q, want %q", cn, org, got, want)
		}
	})
}

// TestAppendAllocGates pins the allocation counts of the formatting
// kernels: an unescaped DN parses into substrings of its input, and a
// synthetic fingerprint allocates only the returned string.
func TestAppendAllocGates(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts include race-detector bookkeeping under -race")
	}
	dn := "CN=vpn.campus.edu,O=University of Somewhere"
	if got := testing.AllocsPerRun(200, func() { ParseDN(dn) }); got != 0 {
		t.Errorf("ParseDN on an unescaped DN: %.1f allocs/op, want 0", got)
	}
	c := &CertInfo{
		SerialHex: "0A1B2C3D4E5F6071", IssuerCN: "Campus Issuing CA", IssuerOrg: "Example, Inc.",
		SubjectCN: "host0042.campus.edu", SubjectOrg: "University of Somewhere",
		SANDNS:    []string{"host0042.campus.edu", "alt.campus.edu"},
		NotBefore: date(2022, 5, 1), NotAfter: date(2023, 5, 1), KeyAlg: KeyECDSA, KeyBits: 256,
	}
	if got := testing.AllocsPerRun(200, func() { SyntheticFingerprint(c, "entity/cli/h42/r0") }); got != 1 {
		t.Errorf("SyntheticFingerprint: %.1f allocs/op, want 1", got)
	}
}
