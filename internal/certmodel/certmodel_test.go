package certmodel

import (
	"testing"
	"testing/quick"
	"time"
)

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func TestValidityDays(t *testing.T) {
	c := &CertInfo{NotBefore: date(2022, 1, 1), NotAfter: date(2022, 1, 15)}
	if got := c.ValidityDays(); got != 14 {
		t.Fatalf("ValidityDays = %d, want 14", got)
	}
}

func TestIncorrectDates(t *testing.T) {
	ok := &CertInfo{NotBefore: date(2022, 1, 1), NotAfter: date(2023, 1, 1)}
	if ok.HasIncorrectDates() {
		t.Fatal("well-formed cert flagged")
	}
	// The paper's rcgen case: 1975 → 1757.
	bad := &CertInfo{NotBefore: date(1975, 1, 1), NotAfter: date(1757, 1, 1)}
	if !bad.HasIncorrectDates() {
		t.Fatal("reversed dates not flagged")
	}
	if bad.ValidityDays() >= 0 {
		t.Fatal("reversed dates should have negative validity")
	}
	// The ayoba.me case: identical timestamps.
	same := &CertInfo{NotBefore: date(2022, 6, 1), NotAfter: date(2022, 6, 1)}
	if !same.HasIncorrectDates() {
		t.Fatal("identical timestamps not flagged")
	}
}

func TestExpiry(t *testing.T) {
	c := &CertInfo{NotBefore: date(2020, 1, 1), NotAfter: date(2021, 1, 1)}
	if c.ExpiredAt(date(2020, 6, 1)) {
		t.Fatal("not yet expired")
	}
	if !c.ExpiredAt(date(2023, 9, 28)) {
		t.Fatal("should be expired")
	}
	// The Figure 5 Apple cluster: ~1000 days expired.
	if got := c.DaysExpiredAt(date(2023, 9, 28)); got != 1000 {
		t.Fatalf("DaysExpiredAt = %d, want 1000", got)
	}
	if got := c.DaysExpiredAt(date(2020, 6, 1)); got != 0 {
		t.Fatalf("DaysExpiredAt before expiry = %d, want 0", got)
	}
}

func TestWeakKey(t *testing.T) {
	weak := &CertInfo{KeyAlg: KeyRSA, KeyBits: 1024}
	if !weak.WeakKey() {
		t.Fatal("1024-bit RSA should be weak")
	}
	strong := &CertInfo{KeyAlg: KeyRSA, KeyBits: 2048}
	if strong.WeakKey() {
		t.Fatal("2048-bit RSA should not be weak")
	}
	ec := &CertInfo{KeyAlg: KeyECDSA, KeyBits: 256}
	if ec.WeakKey() {
		t.Fatal("P-256 should not be weak")
	}
}

func TestMissingIssuerAndIssuerKey(t *testing.T) {
	missing := &CertInfo{}
	if !missing.MissingIssuer() {
		t.Fatal("empty issuer should be missing")
	}
	org := &CertInfo{IssuerOrg: "Globus Online", IssuerCN: "FXP DCAU Cert"}
	if org.MissingIssuer() {
		t.Fatal("populated issuer flagged missing")
	}
	if org.IssuerKey() != "Globus Online" {
		t.Fatalf("IssuerKey = %q", org.IssuerKey())
	}
	cnOnly := &CertInfo{IssuerCN: "ViptelaClient"}
	if cnOnly.IssuerKey() != "ViptelaClient" {
		t.Fatalf("IssuerKey CN fallback = %q", cnOnly.IssuerKey())
	}
}

func TestFormatParseDN(t *testing.T) {
	cases := []struct{ cn, org string }{
		{"example.com", "Example Inc"},
		{"", "Internet Widgits Pty Ltd"},
		{"host, with comma", `Org\with backslash`},
		{"", ""},
	}
	for _, c := range cases {
		dn := FormatDN(c.cn, c.org)
		cn, org := ParseDN(dn)
		if cn != c.cn || org != c.org {
			t.Errorf("round trip (%q,%q) -> %q -> (%q,%q)", c.cn, c.org, dn, cn, org)
		}
	}
}

func TestFormatDNProperty(t *testing.T) {
	f := func(cn, org string) bool {
		// Exclude strings with control chars that DN syntax never carries.
		gotCN, gotOrg := ParseDN(FormatDN(cn, org))
		return gotCN == cn && gotOrg == org
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSANSummaryDeterministic(t *testing.T) {
	a := &CertInfo{SANDNS: []string{"b.com", "a.com"}, SANIP: []string{"1.2.3.4"}}
	b := &CertInfo{SANDNS: []string{"a.com", "b.com"}, SANIP: []string{"1.2.3.4"}}
	if a.SANSummary() != b.SANSummary() {
		t.Fatal("SANSummary should be order independent")
	}
	if a.SANSummary() == "" {
		t.Fatal("non-empty SANs should summarize")
	}
	if (&CertInfo{}).SANSummary() != "" {
		t.Fatal("empty SANs should give empty summary")
	}
}

func TestSyntheticFingerprintStable(t *testing.T) {
	mk := func() *CertInfo {
		return &CertInfo{
			SerialHex: "00", IssuerOrg: "Globus Online", SubjectCN: "x",
			NotBefore: date(2022, 1, 1), NotAfter: date(2022, 1, 15),
		}
	}
	f1 := SyntheticFingerprint(mk(), "1")
	f2 := SyntheticFingerprint(mk(), "1")
	f3 := SyntheticFingerprint(mk(), "2")
	if f1 != f2 {
		t.Fatal("same content must fingerprint identically")
	}
	if f1 == f3 {
		t.Fatal("discriminator must distinguish re-issuances")
	}
	if !f1.Valid() {
		t.Fatal("fingerprint invalid")
	}
}

// TestDayToTimeMatchesAddDate holds DayToTime to the calendar
// arithmetic it skips, value for value, on both sides of its fast range.
func TestDayToTimeMatchesAddDate(t *testing.T) {
	for day := -120_000; day <= 120_000; day += 7 {
		if got, want := DayToTime(day), StudyEpoch.AddDate(0, 0, day); got != want {
			t.Fatalf("DayToTime(%d) = %v, want %v", day, got, want)
		}
	}
}

func TestDayToTimeAndMonth(t *testing.T) {
	if got := DayToTime(0); !got.Equal(date(2022, 5, 1)) {
		t.Fatalf("day 0 = %v", got)
	}
	if got := TimeToMonth(DayToTime(0)); got != "2022-05" {
		t.Fatalf("month = %q", got)
	}
	// Study runs 23 months: day 699 should land in 2024-03.
	if got := TimeToMonth(DayToTime(699)); got != "2024-03" {
		t.Fatalf("day 699 month = %q", got)
	}
}

func TestKeyAlgString(t *testing.T) {
	if KeyRSA.String() != "rsa" || KeyECDSA.String() != "ecdsa" || KeyUnknown.String() != "unknown" {
		t.Fatal("KeyAlg strings wrong")
	}
}
