package interception

import (
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/psl"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func mkCert(issuerOrg, subjectCN string, sans ...string) *certmodel.CertInfo {
	c := &certmodel.CertInfo{
		SerialHex: "0A", Version: 3,
		IssuerOrg: issuerOrg, IssuerCN: issuerOrg + " CA",
		SubjectCN: subjectCN, SANDNS: sans,
		NotBefore: date(2022, 1, 1), NotAfter: date(2023, 1, 1),
	}
	c.Fingerprint = certmodel.SyntheticFingerprint(c, subjectCN+issuerOrg)
	return c
}

func TestProxyIntercept(t *testing.T) {
	p := &Proxy{IssuerOrg: "Corp AV Proxy", IssuerCN: "Corp AV Root"}
	orig := mkCert("DigiCert Inc", "www.bank.com", "www.bank.com")
	re := p.Intercept(orig, "conn1")
	if re.IssuerOrg != "Corp AV Proxy" {
		t.Fatal("issuer not replaced")
	}
	if re.SubjectCN != orig.SubjectCN || len(re.SANDNS) != 1 {
		t.Fatal("subject must be preserved")
	}
	if re.Fingerprint == orig.Fingerprint {
		t.Fatal("fingerprint must change")
	}
	re2 := p.Intercept(orig, "conn1")
	if re2.Fingerprint != re.Fingerprint {
		t.Fatal("same discriminator should reproduce the same cert")
	}
}

func buildScenario(t *testing.T) (*zeek.Dataset, *Detector) {
	t.Helper()
	bundle := truststore.DefaultBundle()
	log := ct.NewLog()
	pslList := psl.Default()

	ds := zeek.NewDataset()
	proxy := &Proxy{IssuerOrg: "Sneaky Inspection CA", IssuerCN: "Sneaky Root"}

	// Three genuine public sites, logged in CT with their true issuers.
	for i, dom := range []string{"bank.com", "shop.com", "mail.com"} {
		orig := mkCert("DigiCert Inc", "www."+dom, "www."+dom)
		log.AddChain(ct.Entry{Domain: dom, IssuerOrg: "DigiCert Inc"})
		// The proxy re-signs each: these are what the tap observes.
		re := proxy.Intercept(orig, dom)
		ds.AddCert(re)
		ds.Conns = append(ds.Conns, zeek.SSLRecord{
			TS: date(2022, 6, 1+i), UID: ids.UID("C" + dom), SNI: "www." + dom,
			RespPort: 443, Established: true,
			ServerChain: []ids.Fingerprint{re.Fingerprint}, Weight: 10,
		})
	}

	// A legitimate private-CA server: CT doesn't know it; must survive.
	private := mkCert("Globus Online", "gridftp.virginia.edu")
	ds.AddCert(private)
	ds.Conns = append(ds.Conns, zeek.SSLRecord{
		TS: date(2022, 6, 9), UID: "Cpriv", SNI: "",
		RespPort: 50001, Established: true,
		ServerChain: []ids.Fingerprint{private.Fingerprint}, Weight: 5,
	})

	// A genuine public-CA connection: step 1 filters it out immediately.
	pub := mkCert("DigiCert Inc", "www.bank.com", "www.bank.com")
	ds.AddCert(pub)
	ds.Conns = append(ds.Conns, zeek.SSLRecord{
		TS: date(2022, 6, 10), UID: "Cpub", SNI: "www.bank.com",
		RespPort: 443, Established: true,
		ServerChain: []ids.Fingerprint{pub.Fingerprint}, Weight: 50,
	})

	// An untrusted issuer contradicting CT on only ONE domain: below the
	// corroboration threshold, must survive.
	oneoff := mkCert("Oneoff Selfsign", "www.bank.com", "www.bank.com")
	ds.AddCert(oneoff)
	ds.Conns = append(ds.Conns, zeek.SSLRecord{
		TS: date(2022, 6, 11), UID: "Cone", SNI: "www.bank.com",
		RespPort: 443, Established: true,
		ServerChain: []ids.Fingerprint{oneoff.Fingerprint}, Weight: 1,
	})

	return ds, &Detector{Bundle: bundle, CT: log, PSL: pslList, MinDomains: 2}
}

func TestDetectorFindsProxy(t *testing.T) {
	ds, det := buildScenario(t)
	res := det.Run(ds)
	if len(res.Issuers) != 1 || res.Issuers[0] != "Sneaky Inspection CA" {
		t.Fatalf("issuers = %v", res.Issuers)
	}
	if len(res.ExcludedCerts) != 3 {
		t.Fatalf("excluded = %d, want 3", len(res.ExcludedCerts))
	}
	if res.CandidateCount < 1 {
		t.Fatal("candidates missing")
	}
	share := res.ExcludedShare(len(ds.Certs))
	if share <= 0 || share >= 1 {
		t.Fatalf("share = %f", share)
	}
}

func TestDetectorSparesLegitimate(t *testing.T) {
	ds, det := buildScenario(t)
	res := det.Run(ds)
	for fp := range res.ExcludedCerts {
		c := ds.Cert(fp)
		if c.IssuerOrg != "Sneaky Inspection CA" {
			t.Fatalf("excluded a non-proxy cert: %+v", c)
		}
	}
}

func TestDetectorDefaultThreshold(t *testing.T) {
	ds, _ := buildScenario(t)
	det2 := &Detector{
		Bundle: truststore.DefaultBundle(), CT: ct.NewLog(), PSL: psl.Default(),
	}
	// No CT data at all: nothing can be contradicted.
	res := det2.Run(ds)
	if len(res.Issuers) != 0 {
		t.Fatalf("no-CT run found issuers: %v", res.Issuers)
	}
}

func TestExcludedShareZeroTotal(t *testing.T) {
	r := &Result{ExcludedCerts: map[ids.Fingerprint]bool{}}
	if r.ExcludedShare(0) != 0 {
		t.Fatal("zero-total share should be 0")
	}
}
