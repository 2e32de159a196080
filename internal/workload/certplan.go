package workload

import (
	"strconv"

	"repro/internal/arena"
	"repro/internal/certmodel"
	"repro/internal/ids"
)

// CertPlan describes how an entity's certificates are minted: issuer,
// serial policy, validity policy (including the paper's pathologies —
// reversed dates, century-long validity, already-expired), key parameters,
// and the CN/SAN content distributions.
type CertPlan struct {
	IssuerOrg string
	IssuerCN  string
	// SelfSigned marks issuer == subject identity (dummy/WebRTC certs).
	SelfSigned bool

	// SerialFixed pins every certificate to one serial ("00", "01",
	// "024680", "03E8" — §5.1.2's dummy serials). Empty means a unique
	// random serial per certificate.
	SerialFixed string

	// ValidityDays is the normal validity period.
	ValidityDays int
	// LongValidityShare of certificates instead get a validity drawn
	// uniformly from [LongValidityMin, LongValidityMax] days (Figure 4's
	// 10,000–40,000-day tail).
	LongValidityShare                float64
	LongValidityMin, LongValidityMax int
	// IncorrectDates reverses the window: NotBefore is set after NotAfter
	// (Figure 3). NotAfterYear optionally pins the bogus year (1757, 1831,
	// 1849...).
	IncorrectDates                                bool
	IncorrectNotBeforeYear, IncorrectNotAfterYear int
	// ExpiredMinDays/ExpiredMaxDays > 0 mint certificates that expired
	// that many days BEFORE their first use (Figure 5).
	ExpiredMinDays, ExpiredMaxDays int
	// ReissueDays > 0 replaces each holder's certificate every N days
	// (Globus's 14-day certificates), multiplying unique-cert counts.
	ReissueDays int

	// Version is the X.509 version (default 3; §5.1.1 flags version 1).
	Version int
	// WeakRSAShare of certificates carry 1024-bit RSA keys.
	WeakRSAShare float64

	// CN is the weighted content distribution for the Subject CN.
	CN []Content
	// SAN is the content distribution for SAN DNS entries; SANFill is the
	// probability a certificate has any SAN at all (Table 7's utilization
	// rates). SANCount entries are drawn when filled (default 1).
	SAN      []Content
	SANFill  float64
	SANCount int

	// SANEmailFill / SANIPFill optionally populate the explicit SAN
	// types (§6.1.2 notes these are 99% empty).
	SANEmailFill float64
	SANIPFill    float64

	// SubjectOrg optionally sets the subject organization.
	SubjectOrg string
}

// mint creates the certificate of holder #holder for certificate kind
// kind of entity entity, valid appropriately for a first use at day
// firstUseDay (study-day offset). reissue is the re-issuance round (0 for
// the first cert).
func (p *CertPlan) mint(rng *ids.RNG, entity, kind string, holder, reissue, firstUseDay int) *certmodel.CertInfo {
	c := new(certmodel.CertInfo)
	p.mintInto(c, nil, rng, []byte(entity+"/"+kind+"/"), holder, reissue, firstUseDay)
	return c
}

// mintInto is mint into *c, with the certificate's own strings cut from
// strs (allocated when strs is nil) and prefix "<entity>/<kind>/".
func (p *CertPlan) mintInto(c *certmodel.CertInfo, strs *arena.Strings, rng *ids.RNG, prefix []byte, holder, reissue, firstUseDay int) {
	*c = certmodel.CertInfo{
		IssuerOrg: p.IssuerOrg,
		IssuerCN:  p.IssuerCN,
		Version:   orN(p.Version, 3),
		KeyAlg:    certmodel.KeyECDSA,
		KeyBits:   256,
	}
	if p.SelfSigned {
		c.SelfSigned = true
	}
	if p.WeakRSAShare > 0 && rng.Bool(p.WeakRSAShare) {
		c.KeyAlg = certmodel.KeyRSA
		c.KeyBits = 1024
	}
	if p.SerialFixed != "" {
		c.SerialHex = p.SerialFixed
	} else {
		var b [16]byte
		c.SerialHex = strs.Cut(appendSerialHex(b[:0], rng.Uint64()))
	}

	p.setValidity(rng, c, firstUseDay, reissue)

	// Subject content.
	cn := pickContent(rng, p.CN)
	c.SubjectCN = cn.render(strs, rng, holder)
	c.SubjectOrg = p.SubjectOrg
	if p.SANFill > 0 && rng.Bool(p.SANFill) {
		n := orN(p.SANCount, 1)
		for i := 0; i < n; i++ {
			v := pickContent(rng, p.SAN).render(strs, rng, holder)
			if v != "" {
				if c.SANDNS == nil {
					c.SANDNS = strs.List(n)
				}
				c.SANDNS = append(c.SANDNS, v)
			}
		}
	}
	if p.SANEmailFill > 0 && rng.Bool(p.SANEmailFill) {
		c.SANEmail = append(strs.List(1), Content{Kind: KindEmail}.render(strs, rng, holder))
	}
	if p.SANIPFill > 0 && rng.Bool(p.SANIPFill) {
		c.SANIP = append(strs.List(1), Content{Kind: KindIP}.render(strs, rng, holder))
	}

	// certmodel.SyntheticFingerprint with the discriminator
	// "<entity>/<kind>/h<holder>/r<reissue>" appended in place.
	var buf [512]byte
	b := certmodel.AppendSyntheticIdentity(buf[:0], c)
	b = strconv.AppendInt(append(append(b, prefix...), 'h'), int64(holder), 10)
	b = strconv.AppendInt(append(b, "/r"...), int64(reissue), 10)
	var fp [64]byte
	c.Fingerprint = ids.Fingerprint(strs.Cut(ids.AppendFingerprint(fp[:0], b)))
}

// appendSerialHex appends v as sixteen uppercase hex digits, fmt's
// "%016X".
func appendSerialHex(b []byte, v uint64) []byte {
	const hexd = "0123456789ABCDEF"
	for i := 60; i >= 0; i -= 4 {
		b = append(b, hexd[v>>i&15])
	}
	return b
}

func (p *CertPlan) setValidity(rng *ids.RNG, c *certmodel.CertInfo, firstUseDay, reissue int) {
	switch {
	case p.IncorrectDates:
		nbYear := orN(p.IncorrectNotBeforeYear, 2019)
		naYear := orN(p.IncorrectNotAfterYear, 1849)
		c.NotBefore = certmodel.DayToTime(0).AddDate(nbYear-2022, 0, rng.Intn(300))
		c.NotAfter = certmodel.DayToTime(0).AddDate(naYear-2022, 0, rng.Intn(300))
		if !c.HasIncorrectDates() {
			// Equal-or-reversed is required; force reversal.
			c.NotBefore, c.NotAfter = c.NotAfter, c.NotBefore
			if !c.HasIncorrectDates() {
				c.NotAfter = c.NotBefore
			}
		}
	case p.ExpiredMaxDays > 0:
		// Expired ExpiredMin..ExpiredMax days before first use.
		span := p.ExpiredMaxDays - p.ExpiredMinDays
		if span <= 0 {
			span = 1
		}
		expiredFor := p.ExpiredMinDays + rng.Intn(span)
		validity := orN(p.ValidityDays, 365)
		c.NotAfter = certmodel.DayToTime(firstUseDay - expiredFor)
		c.NotBefore = certmodel.DayToTime(firstUseDay - expiredFor - validity)
	default:
		validity := orN(p.ValidityDays, 365)
		if p.LongValidityShare > 0 && rng.Bool(p.LongValidityShare) {
			span := p.LongValidityMax - p.LongValidityMin
			if span <= 0 {
				span = 1
			}
			validity = p.LongValidityMin + rng.Intn(span)
		}
		start := firstUseDay
		if p.ReissueDays > 0 {
			start = firstUseDay + reissue*p.ReissueDays
		} else {
			// Issue up to 60 days before first use, but never so early
			// that the certificate is already expired when first used.
			back := 60
			if validity < back*2 {
				back = validity / 2
			}
			if back > 0 {
				start = firstUseDay - rng.Intn(back)
			}
		}
		c.NotBefore = certmodel.DayToTime(start)
		c.NotAfter = certmodel.DayToTime(start + validity)
	}
}

// reissueIndex returns which re-issuance round covers day (study-day
// offset relative to the holder's first use).
func (p *CertPlan) reissueIndex(firstUseDay, day int) int {
	if p.ReissueDays <= 0 || day <= firstUseDay {
		return 0
	}
	return (day - firstUseDay) / p.ReissueDays
}
