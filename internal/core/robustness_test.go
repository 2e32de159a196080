package core

import (
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ct"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// minimalInput builds an Input around a hand-made dataset.
func minimalInput(ds *zeek.Dataset) *Input {
	return &Input{
		Raw:    ds,
		CT:     ct.NewLog(),
		Bundle: truststore.DefaultBundle(),
		Assoc:  AssocMap{UniversitySLDs: []string{"virginia.edu"}},
		Plan:   netsim.DefaultPlan(),
	}
}

func mkTestCert(serial, issuer, cn string) *certmodel.CertInfo {
	c := &certmodel.CertInfo{
		SerialHex: serial, Version: 3, IssuerOrg: issuer, SubjectCN: cn,
		NotBefore: time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC),
		NotAfter:  time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	c.Fingerprint = certmodel.SyntheticFingerprint(c, cn)
	return c
}

// The pipeline must tolerate connections whose chain fingerprints have no
// x509 row — truncated captures produce exactly this.
func TestPipelineMissingCertRows(t *testing.T) {
	ds := zeek.NewDataset()
	known := mkTestCert("01", "Known CA", "known-client")
	ds.AddCert(known)
	ds.Conns = append(ds.Conns,
		zeek.SSLRecord{
			TS: certmodel.DayToTime(10), UID: "C1", OrigIP: "8.8.8.8",
			RespIP: "128.143.1.1", RespPort: 443, Version: "TLSv12",
			SNI: "www.virginia.edu", Established: true,
			ServerChain: []ids.Fingerprint{"deadbeef-no-such-cert"},
			ClientChain: []ids.Fingerprint{known.Fingerprint},
			Weight:      5,
		},
		zeek.SSLRecord{
			TS: certmodel.DayToTime(11), UID: "C2", OrigIP: "8.8.4.4",
			RespIP: "128.143.1.2", RespPort: 443, Version: "TLSv12",
			SNI: "", Established: true,
			ServerChain: []ids.Fingerprint{"gone1"},
			ClientChain: []ids.Fingerprint{"gone2"},
			Weight:      3,
		},
	)
	a := Run(minimalInput(ds))
	if a.CertStats.Row("Total").Total != 1 {
		t.Fatalf("cert stats counted phantom certs: %+v", a.CertStats.Rows)
	}
	// The known client cert is still mutual (the conn had both chains).
	if a.CertStats.Row("Client").Mutual != 1 {
		t.Fatalf("known client cert lost: %+v", a.CertStats.Row("Client"))
	}
}

// An empty dataset must produce a complete, zero-valued analysis.
func TestPipelineEmptyDataset(t *testing.T) {
	a := Run(minimalInput(zeek.NewDataset()))
	if a.CertStats.Row("Total").Total != 0 {
		t.Fatal("phantom certs")
	}
	if len(a.Prevalence.Overall) != 0 {
		t.Fatal("phantom months")
	}
	if a.Concerns.MutualTotal != 0 || a.Concerns.AffectedShare() != 0 {
		t.Fatal("phantom concerns")
	}
	if a.Validity.MaxValidityDays != 0 {
		t.Fatal("phantom validity")
	}
	if len(a.SharingSame.Rows) != 0 || a.SharingCross.Certs != 0 {
		t.Fatal("phantom sharing")
	}
}

// Non-established connections must be excluded from the mutual analyses
// (the paper analyzes established connections only).
func TestPipelineIgnoresFailedHandshakes(t *testing.T) {
	ds := zeek.NewDataset()
	cli := mkTestCert("02", "CA", "cli")
	srv := mkTestCert("03", "CA", "srv")
	ds.AddCert(cli)
	ds.AddCert(srv)
	ds.Conns = append(ds.Conns, zeek.SSLRecord{
		TS: certmodel.DayToTime(5), UID: "C1", OrigIP: "8.8.8.8",
		RespIP: "128.143.1.1", RespPort: 443, Version: "TLSv12",
		Established: false, // failed
		ServerChain: []ids.Fingerprint{srv.Fingerprint},
		ClientChain: []ids.Fingerprint{cli.Fingerprint},
		Weight:      100,
	})
	a := Run(minimalInput(ds))
	if a.CertStats.Row("Client").Mutual != 0 {
		t.Fatal("failed handshake counted as mutual")
	}
	if a.Concerns.MutualTotal != 0 {
		t.Fatal("failed handshake weighted into concerns")
	}
}

// Conn timestamps outside the study window must not corrupt month series.
func TestPipelineOutOfWindowTimestamps(t *testing.T) {
	ds := zeek.NewDataset()
	cli := mkTestCert("04", "CA", "c")
	srv := mkTestCert("05", "CA", "s")
	ds.AddCert(cli)
	ds.AddCert(srv)
	for _, ts := range []time.Time{
		time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC), // before study
		time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC), // after study
	} {
		ds.Conns = append(ds.Conns, zeek.SSLRecord{
			TS: ts, UID: ids.UID("C" + ts.Format("06")), OrigIP: "8.8.8.8",
			RespIP: "128.143.1.1", RespPort: 443, Version: "TLSv12",
			Established: true,
			ServerChain: []ids.Fingerprint{srv.Fingerprint},
			ClientChain: []ids.Fingerprint{cli.Fingerprint},
			Weight:      1,
		})
	}
	a := Run(minimalInput(ds))
	// The month series keys by actual month; out-of-window rows appear
	// under their own months rather than corrupting 2022-05..2024-03.
	for _, p := range a.Prevalence.Overall {
		if p.Den <= 0 {
			t.Fatalf("corrupt month point: %+v", p)
		}
	}
}

// Zero/negative weights must never push totals negative.
func TestPipelineWeightFloor(t *testing.T) {
	ds := zeek.NewDataset()
	cli := mkTestCert("06", "CA", "c2")
	srv := mkTestCert("07", "CA", "s2")
	ds.AddCert(cli)
	ds.AddCert(srv)
	ds.Conns = append(ds.Conns, zeek.SSLRecord{
		TS: certmodel.DayToTime(5), UID: "Cw", OrigIP: "8.8.8.8",
		RespIP: "128.143.1.1", RespPort: 443, Version: "TLSv12",
		Established: true,
		ServerChain: []ids.Fingerprint{srv.Fingerprint},
		ClientChain: []ids.Fingerprint{cli.Fingerprint},
		Weight:      0,
	})
	a := Run(minimalInput(ds))
	if a.Concerns.MutualTotal < 0 {
		t.Fatal("negative totals")
	}
}
