// Package interception models both sides of the TLS-interception problem
// the paper must solve during preprocessing (§3.2):
//
//   - Proxy simulates an inspecting middlebox that re-signs server
//     certificates with its own CA, so the client (and the border tap)
//     never sees the genuine server certificate; and
//   - Detector reimplements the paper's three-step filter: (1) keep only
//     connections whose server leaf issuer is not in the trust stores,
//     (2) look the domain up in CT and compare issuers, (3) confirm
//     issuers that systematically re-sign many domains ("manual
//     investigation" in the paper, a corroboration threshold here).
//
// The paper identified 186 interception issuers covering 8.4% of
// certificates; the detector reports the same artifacts (issuer list +
// excluded certificate set) for the simulated population.
package interception

import (
	"repro/internal/certmodel"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/psl"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// Proxy is a re-signing middlebox.
type Proxy struct {
	// IssuerOrg/IssuerCN identify the proxy's private CA (e.g. a corporate
	// antivirus root).
	IssuerOrg string
	IssuerCN  string
}

// Intercept returns the certificate the client sees instead of orig: same
// subject and SANs, the proxy's issuer, a fresh fingerprint. Validity is
// clamped to the proxy's short re-issue window, as real middleboxes do.
func (p *Proxy) Intercept(orig *certmodel.CertInfo, discriminator string) *certmodel.CertInfo {
	re := &certmodel.CertInfo{
		SerialHex:  orig.SerialHex,
		Version:    3,
		IssuerOrg:  p.IssuerOrg,
		IssuerCN:   p.IssuerCN,
		SubjectCN:  orig.SubjectCN,
		SubjectOrg: orig.SubjectOrg,
		SANDNS:     append([]string(nil), orig.SANDNS...),
		SANIP:      append([]string(nil), orig.SANIP...),
		NotBefore:  orig.NotBefore,
		NotAfter:   orig.NotAfter,
		KeyAlg:     orig.KeyAlg,
		KeyBits:    orig.KeyBits,
	}
	re.Fingerprint = certmodel.SyntheticFingerprint(re, "intercept/"+discriminator)
	return re
}

// Result is the detector's output.
type Result struct {
	// Issuers is the sorted list of confirmed interception issuers (the
	// paper found 186).
	Issuers []string
	// ExcludedCerts holds the fingerprints removed from analysis (the
	// paper excluded 871,993, 8.4%).
	ExcludedCerts map[ids.Fingerprint]bool
	// CandidateCount is how many issuers reached step 2 (CT comparison).
	CandidateCount int
}

// Excludes reports whether the verdict removes fp from analysis.
func (r *Result) Excludes(fp ids.Fingerprint) bool { return r.ExcludedCerts[fp] }

// ExcludedShare returns |excluded| / total.
func (r *Result) ExcludedShare(totalCerts int) float64 {
	if totalCerts == 0 {
		return 0
	}
	return float64(len(r.ExcludedCerts)) / float64(totalCerts)
}

// Detector implements the CT-based filter.
type Detector struct {
	Bundle *truststore.Bundle
	CT     *ct.Log
	PSL    *psl.List
	// MinDomains is the corroboration threshold standing in for the
	// paper's manual investigation: an untrusted issuer is confirmed as
	// interception when it contradicts CT on at least this many distinct
	// domains. Default 2.
	MinDomains int
}

// NewDetector returns the detector with the paper's parameters —
// corroboration on 2 distinct registrable domains of the default public
// suffix list — which the batch preprocess and the streaming engine share
// so the two cannot drift apart.
func NewDetector(bundle *truststore.Bundle, log *ct.Log) *Detector {
	return &Detector{Bundle: bundle, CT: log, PSL: psl.Default()}
}

// Run inspects every connection's server leaf and returns the confirmed
// interception issuers plus the certificates to exclude. It is the batch
// form of the incremental Stream: one Observe per connection, its leaf
// resolved off the dataset's roster, then Result — so the one-shot and
// streaming paths share one implementation.
func (d *Detector) Run(ds *zeek.Dataset) *Result {
	s := d.NewStream()
	for i := range ds.Conns {
		conn := &ds.Conns[i]
		s.Observe(conn, ds.Cert(conn.ServerLeaf()))
	}
	return s.Result()
}
