package infotype

import (
	"testing"

	"repro/internal/psl"
	"repro/internal/workload"
)

func newClassifier() *Classifier {
	return New(psl.Default(), []string{"University of Virginia", "UVA Campus CA"})
}

// classifyCases is the labelled lexicon: one value per type and edge case,
// with the issuer that decides the UserAccount rule.
var classifyCases = []struct {
	value  string
	issuer string
	want   InfoType
}{
	{"www.idrive.com", "", Domain},
	{"*.apple.com", "", Domain},
	{"192.0.2.7", "", IP},
	{"2001:db8::1", "", IP},
	{"12:34:56:AB:CD:EF", "", MAC},
	{"12-34-56-ab-cd-ef", "", MAC},
	{"sip:alice@voip.example.com", "", SIP},
	{"SIPS:bob@host", "", SIP},
	{"ops@example.com", "", Email},
	{"localhost", "", Localhost},
	{"myhost.localdomain", "", Localhost},
	{"hd7gr", "University of Virginia", UserAccount},
	{"ys3kz", "uva campus ca", UserAccount},
	{"John Smith", "", PersonalName},
	{"WebRTC", "", OrgProduct},
	{"twilio", "", OrgProduct},
	{"Honeywell International Inc", "", OrgProduct},
	{"Hybrid Runbook Worker", "", OrgProduct},
	{"__transfer__", "", Unidentified},
	{"Dtls", "", Unidentified},
	{"9f86d081884c7d659a2feaa0c55ad015", "", Unidentified},
	{"", "", Unidentified},
}

func TestClassifyFormatTypes(t *testing.T) {
	c := newClassifier()
	for _, tc := range classifyCases {
		if got := c.Classify(tc.value, tc.issuer); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.value, got, tc.want)
		}
	}
}

// TestClassifyIsClassifyCampus: Classify reads the issuer only through
// IsCampusIssuer, so Classify(v, k) == ClassifyCampus(v, IsCampusIssuer(k))
// over the lexicon and every CN/SAN value of a generated campus build,
// each against its own issuer, the lexicon's issuers and every campus
// issuer.
func TestClassifyIsClassifyCampus(t *testing.T) {
	b, err := workload.FromSpec(nil, workload.Config{CertScale: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c := New(psl.Default(), b.CampusIssuers)
	issuers := append([]string{"", "Random Private CA", " university  of VIRGINIA "}, b.CampusIssuers...)
	check := func(value, issuer string) {
		if got, want := c.ClassifyCampus(value, c.IsCampusIssuer(issuer)), c.Classify(value, issuer); got != want {
			t.Errorf("ClassifyCampus(%q, IsCampusIssuer(%q)) = %v, Classify = %v", value, issuer, got, want)
		}
	}
	n := 0
	for _, tc := range classifyCases {
		for _, k := range append(issuers, tc.issuer) {
			check(tc.value, k)
		}
	}
	for _, cert := range b.Raw.Certs {
		for _, v := range append([]string{cert.SubjectCN}, cert.SANDNS...) {
			for _, k := range append(issuers, cert.IssuerKey()) {
				check(v, k)
			}
			if c.IsCampusIssuer(cert.IssuerKey()) && IsUserAccountFormat(v) {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("the build has no user account under a campus issuer: the campus flag went untested")
	}
}

func TestUserAccountRequiresCampusIssuer(t *testing.T) {
	c := newClassifier()
	// Right format, wrong issuer: falls through to Unidentified.
	if got := c.Classify("hd7gr", "Random Private CA"); got == UserAccount {
		t.Fatal("user account must require a campus issuer")
	}
}

func TestIsUserAccountFormat(t *testing.T) {
	good := []string{"hd7gr", "ys3kz", "kd5eyn", "frv9vh", "ab1c"}
	for _, g := range good {
		if !IsUserAccountFormat(g) {
			t.Errorf("IsUserAccountFormat(%q) = false", g)
		}
	}
	bad := []string{"", "a1b", "abcd1234x", "HD7GR", "1abc2", "abcde", "ab-1c", "a2345678"}
	for _, b := range bad {
		if IsUserAccountFormat(b) {
			t.Errorf("IsUserAccountFormat(%q) = true", b)
		}
	}
}

func TestIsMACAddress(t *testing.T) {
	if !IsMACAddress("00:1A:2B:3C:4D:5E") {
		t.Fatal("valid MAC rejected")
	}
	bad := []string{"00:1A:2B:3C:4D", "00:1A:2B:3C:4D:5E:6F", "00;1A;2B;3C;4D;5E", "0G:1A:2B:3C:4D:5E", "001A2B3C4D5E"}
	for _, b := range bad {
		if IsMACAddress(b) {
			t.Errorf("IsMACAddress(%q) = true", b)
		}
	}
}

func TestIsEmailAddress(t *testing.T) {
	if !IsEmailAddress("a@b.com") {
		t.Fatal("valid email rejected")
	}
	for _, b := range []string{"a@b@c.com", "@b.com", "a@", "a b@c.com", "a@nodot", "plain"} {
		if IsEmailAddress(b) {
			t.Errorf("IsEmailAddress(%q) = true", b)
		}
	}
}

func TestClassifyPrecedence(t *testing.T) {
	c := newClassifier()
	// An email that is also sip-prefixed: SIP wins (checked first).
	if got := c.Classify("sip:user@host.com", ""); got != SIP {
		t.Fatalf("sip email = %v", got)
	}
	// localhost beats domain parsing.
	if got := c.Classify("localhost.example.com", ""); got != Localhost {
		t.Fatalf("localhost domain = %v", got)
	}
}

func TestClassifyUnidentified(t *testing.T) {
	cases := []struct {
		value    string
		byIssuer bool
		want     RandomBucket
	}{
		{"__transfer__", false, NonRandom},
		{"Dtls", false, NonRandom},
		{"hmpp", false, NonRandom},
		{"a3f9c2e1", false, RandomLen8},
		{"9f86d081884c7d659a2feaa0c55ad015", false, RandomLen32},
		{"123e4567-e89b-12d3-a456-426614174000", false, RandomLen36},
		{"123e4567-e89b-12d3-a456-426614174000", true, RandomByIssuer},
		{"deadbeefdeadbeefdead", false, RandomOther},
	}
	for _, tc := range cases {
		if got := ClassifyUnidentified(tc.value, tc.byIssuer); got != tc.want {
			t.Errorf("ClassifyUnidentified(%q,%v) = %v, want %v", tc.value, tc.byIssuer, got, tc.want)
		}
	}
}

func TestInfoTypeStrings(t *testing.T) {
	if Domain.String() != "Domain" || UserAccount.String() != "User account" ||
		OrgProduct.String() != "Org/Product" || Unidentified.String() != "Unidentified" {
		t.Fatal("labels wrong")
	}
	if len(AllTypes) != 10 {
		t.Fatalf("AllTypes = %d", len(AllTypes))
	}
}

func TestRandomBucketStrings(t *testing.T) {
	if NonRandom.String() != "Non-random" || RandomLen8.String() != "Random - strlen = 8" ||
		RandomByIssuer.String() != "Random - by Issuer" || RandomOther.String() != "Random - other" {
		t.Fatal("bucket labels wrong")
	}
}
