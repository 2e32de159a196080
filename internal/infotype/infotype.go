// Package infotype classifies the contents of CN and SAN fields into the
// paper's §6.1 information types: Domain, IP, MAC, SIP, Email, UserAccount,
// PersonalName, Org/Product, Localhost, and Unidentified — plus Table 9's
// sub-classification of unidentified strings (non-random vs random, random
// recognizable by issuer, and the strlen 8/32/36 buckets).
//
// Classification order follows the paper's methodology: format-specific
// types are matched first with exact parsers/regex-equivalents, then the
// NER-based types (via internal/nerlite), with everything left marked
// Unidentified.
package infotype

import (
	"net/netip"
	"strings"

	"repro/internal/nerlite"
	"repro/internal/psl"
)

// InfoType is the §6.1 information type.
type InfoType int

const (
	Unidentified InfoType = iota
	Domain
	IP
	MAC
	SIP
	Email
	UserAccount
	PersonalName
	OrgProduct
	Localhost
)

// String renders the table label.
func (t InfoType) String() string {
	switch t {
	case Domain:
		return "Domain"
	case IP:
		return "IP"
	case MAC:
		return "MAC"
	case SIP:
		return "SIP"
	case Email:
		return "Email"
	case UserAccount:
		return "User account"
	case PersonalName:
		return "Personal name"
	case OrgProduct:
		return "Org/Product"
	case Localhost:
		return "Localhost"
	default:
		return "Unidentified"
	}
}

// AllTypes lists the types in the paper's Table 8 row order.
var AllTypes = []InfoType{
	Domain, IP, MAC, SIP, Email, UserAccount, PersonalName, OrgProduct,
	Localhost, Unidentified,
}

// Classifier classifies CN/SAN values.
type Classifier struct {
	PSL *psl.List
	// CampusIssuers holds issuer identities managed by the university;
	// the UserAccount type requires both the ID format AND a campus
	// issuer (§6.1.1).
	CampusIssuers map[string]bool
}

// New builds a classifier. campusIssuers may be nil.
func New(list *psl.List, campusIssuers []string) *Classifier {
	m := make(map[string]bool, len(campusIssuers))
	for _, iss := range campusIssuers {
		m[norm(iss)] = true
	}
	return &Classifier{PSL: list, CampusIssuers: m}
}

// Classify labels one CN or SAN value. issuerKey is the certificate's
// issuer identity (used only for the UserAccount rule).
func (c *Classifier) Classify(value, issuerKey string) InfoType {
	return c.ClassifyCampus(value, c.IsCampusIssuer(issuerKey))
}

// IsCampusIssuer reports whether issuerKey is one of the university's
// issuers — all Classify reads of the issuer.
func (c *Classifier) IsCampusIssuer(issuerKey string) bool {
	return c.CampusIssuers[norm(issuerKey)]
}

// ClassifyCampus labels one CN or SAN value of a certificate whose issuer
// is (campus) or is not a university issuer. It lets a caller that
// classifies many values of few issuers resolve each issuer once.
func (c *Classifier) ClassifyCampus(value string, campus bool) InfoType {
	v := strings.TrimSpace(value)
	if v == "" {
		return Unidentified
	}
	lower := strings.ToLower(v)

	// Format-specific types, in the paper's order.
	if strings.Contains(lower, "localhost") || strings.Contains(lower, "localdomain") {
		return Localhost
	}
	if IsSIPAddress(v) {
		return SIP
	}
	if IsMACAddress(v) {
		return MAC
	}
	if IsIPAddress(v) {
		return IP
	}
	if IsEmailAddress(v) {
		return Email
	}
	if c.PSL.IsDomainName(v) {
		return Domain
	}
	if campus && IsUserAccountFormat(v) {
		return UserAccount
	}
	// NER types.
	switch nerlite.Recognize(v) {
	case nerlite.LabelPerson:
		return PersonalName
	case nerlite.LabelOrg, nerlite.LabelProduct:
		return OrgProduct
	}
	return Unidentified
}

// IsIPAddress matches IPv4/IPv6 literals (the Python ipaddress check).
func IsIPAddress(s string) bool {
	_, err := netip.ParseAddr(s)
	return err == nil
}

// IsMACAddress matches the standard colon/dash-separated 6-octet format
// (e.g. 12:34:56:AB:CD:EF).
func IsMACAddress(s string) bool {
	if len(s) != 17 {
		return false
	}
	sep := s[2]
	if sep != ':' && sep != '-' {
		return false
	}
	for i := 0; i < 17; i++ {
		switch i % 3 {
		case 2:
			if s[i] != sep {
				return false
			}
		default:
			if !isHex(s[i]) {
				return false
			}
		}
	}
	return true
}

// IsSIPAddress matches "sip:user@host" / "sips:" URIs.
func IsSIPAddress(s string) bool {
	l := strings.ToLower(s)
	return strings.HasPrefix(l, "sip:") || strings.HasPrefix(l, "sips:")
}

// IsEmailAddress is the paper's regex-level check: one '@', plausible
// local part and domain-ish remainder.
func IsEmailAddress(s string) bool {
	at := strings.Count(s, "@")
	if at != 1 {
		return false
	}
	local, domain, _ := strings.Cut(s, "@")
	if local == "" || domain == "" || strings.ContainsAny(s, " \t") {
		return false
	}
	return strings.Contains(domain, ".")
}

// IsUserAccountFormat matches the campus computing-ID shape: 2–3 lowercase
// letters, a digit, then 1–3 lowercase alphanumerics (e.g. "hd7gr",
// "ys3kz", "frv9vh").
func IsUserAccountFormat(s string) bool {
	n := len(s)
	if n < 4 || n > 7 {
		return false
	}
	i := 0
	for i < n && isLower(s[i]) {
		i++
	}
	if i < 2 || i > 3 {
		return false
	}
	if i >= n || !isDigit(s[i]) {
		return false
	}
	i++
	rest := n - i
	if rest < 1 || rest > 3 {
		return false
	}
	for ; i < n; i++ {
		if !isLower(s[i]) && !isDigit(s[i]) {
			return false
		}
	}
	return true
}

// RandomBucket is Table 9's sub-classification of unidentified strings.
type RandomBucket int

const (
	NonRandom RandomBucket = iota
	RandomByIssuer
	RandomLen8
	RandomLen32
	RandomLen36
	RandomOther
)

// String renders the Table 9 row label.
func (b RandomBucket) String() string {
	switch b {
	case NonRandom:
		return "Non-random"
	case RandomByIssuer:
		return "Random - by Issuer"
	case RandomLen8:
		return "Random - strlen = 8"
	case RandomLen32:
		return "Random - strlen = 32"
	case RandomLen36:
		return "Random - strlen = 36"
	default:
		return "Random - other"
	}
}

// ClassifyUnidentified buckets an unidentified string. issuerRecognizable
// reports whether the certificate's issuer field identifies the generator
// of the string (the paper's 'Microsoft Azure Sphere …' / 'Apple iPhone
// Device CA' cases).
func ClassifyUnidentified(value string, issuerRecognizable bool) RandomBucket {
	if !nerlite.IsRandomString(value) {
		return NonRandom
	}
	if issuerRecognizable {
		return RandomByIssuer
	}
	switch len(value) {
	case 8:
		return RandomLen8
	case 32:
		return RandomLen32
	case 36:
		return RandomLen36
	default:
		return RandomOther
	}
}

func isHex(c byte) bool {
	return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func norm(s string) string {
	return strings.ToLower(strings.Join(strings.Fields(s), " "))
}
