package interception

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/ids"
)

// rebuildVerdict is the oracle for the incremental Merge, sharing no code
// with it: union the relations from scratch, confirm issuers
// contradicted on >= 2 domains, exclude everything they were seen
// issuing.
func rebuildVerdict(evs ...*Evidence) *Result {
	observed := map[string]map[ids.Fingerprint]bool{}
	contradicted := map[string]map[string]bool{}
	for _, ev := range evs {
		for issuer, fps := range ev.Observed {
			if observed[issuer] == nil {
				observed[issuer] = map[ids.Fingerprint]bool{}
			}
			for fp := range fps {
				observed[issuer][fp] = true
			}
		}
		for issuer, domains := range ev.Contradicted {
			if contradicted[issuer] == nil {
				contradicted[issuer] = map[string]bool{}
			}
			for d := range domains {
				contradicted[issuer][d] = true
			}
		}
	}
	res := &Result{CandidateCount: len(contradicted), ExcludedCerts: map[ids.Fingerprint]bool{}}
	for issuer, domains := range contradicted {
		if len(domains) < 2 {
			continue
		}
		res.Issuers = append(res.Issuers, issuer)
		for fp := range observed[issuer] {
			res.ExcludedCerts[fp] = true
		}
	}
	sort.Strings(res.Issuers)
	return res
}

// streamOver drains a subset of the scenario dataset (certs first, then
// the given conn indices) through a fresh Stream.
func streamOver(t *testing.T, connIdx ...int) *Stream {
	t.Helper()
	ds, det := buildScenario(t)
	s := det.NewStream()
	for _, c := range ds.Certs {
		s.ObserveCert(c)
	}
	if len(connIdx) == 0 {
		for i := range ds.Conns {
			s.Observe(&ds.Conns[i], ds.Cert(ds.Conns[i].ServerLeaf()))
		}
	} else {
		for _, i := range connIdx {
			s.Observe(&ds.Conns[i], ds.Cert(ds.Conns[i].ServerLeaf()))
		}
	}
	return s
}

func TestAbsorbEvidenceMatchesRebuild(t *testing.T) {
	s := streamOver(t)

	viaEv := NewMerge(0)
	viaEv.AbsorbEvidence(EvidenceOf(s.Pairs(0)))
	viaEv.AbsorbEvidence(EvidenceOf(s.Pairs(0))) // re-presenting a source adds nothing

	want := rebuildVerdict(EvidenceOf(s.Pairs(0)))
	if got := viaEv.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("AbsorbEvidence result = %+v, want %+v", got, want)
	}
	if got := s.Result(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stream's own result = %+v, want %+v", got, want)
	}
}

// TestRestoreUnionsSnapshots deals the scenario's connections to two
// streams at random, half of them ahead of their leaf certificate, and
// restores both snapshots into one fresh stream: it must hold what one
// stream fed everything holds — the verdict of the from-scratch union, the
// same evidence, every parked observation once — and once the certificates
// arrive, Detector.Run's result.
func TestRestoreUnionsSnapshots(t *testing.T) {
	ds, det := buildScenario(t)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		parts := []*Stream{det.NewStream(), det.NewStream()}
		whole := det.NewStream()
		for _, i := range rng.Perm(len(ds.Conns)) {
			conn := &ds.Conns[i]
			leaf := ds.Cert(conn.ServerLeaf())
			if rng.Intn(2) == 0 {
				leaf = nil
			}
			parts[rng.Intn(len(parts))].Observe(conn, leaf)
			whole.Observe(conn, leaf)
		}
		restored := det.NewStream()
		for _, s := range parts {
			restored.Restore(s.Pairs(0), s.Parked())
		}
		want := rebuildVerdict(EvidenceOf(parts[0].Pairs(0)), EvidenceOf(parts[1].Pairs(0)))
		if got := restored.Result(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restored = %+v, rebuild = %+v", round, got, want)
		}
		if got, want := EvidenceOf(restored.Pairs(0)), EvidenceOf(whole.Pairs(0)); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: restored evidence = %+v, one stream's = %+v", round, got, want)
		}
		if got, want := restored.PendingCount(), whole.PendingCount(); got != want {
			t.Fatalf("round %d: restored parks %d, one stream %d", round, got, want)
		}
		if restored.ExcludedCount() != len(want.ExcludedCerts) || restored.ConfirmedCount() != len(want.Issuers) {
			t.Fatalf("round %d: counts %d/%d, want %d/%d", round,
				restored.ExcludedCount(), restored.ConfirmedCount(), len(want.ExcludedCerts), len(want.Issuers))
		}
		for _, c := range ds.Certs {
			restored.ObserveCert(c)
		}
		if restored.PendingCount() != 0 {
			t.Fatalf("round %d: %d still parked after every certificate arrived", round, restored.PendingCount())
		}
		if got, want := restored.Result(), det.Run(ds); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: drained verdict %+v, want %+v", round, got, want)
		}
	}
}

// TestMergeResetForgets pins the one non-monotone step: after Reset the
// union holds only what is absorbed afterwards.
func TestMergeResetForgets(t *testing.T) {
	full, one := streamOver(t), streamOver(t, 0)
	m := NewMerge(2)
	m.AbsorbEvidence(EvidenceOf(full.Pairs(0)))
	if m.ConfirmedCount() != 1 {
		t.Fatalf("confirmed = %d, want 1", m.ConfirmedCount())
	}
	m.Reset()
	m.AbsorbEvidence(EvidenceOf(one.Pairs(0)))
	if got, want := m.Result(), rebuildVerdict(EvidenceOf(one.Pairs(0))); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Reset: %+v, want %+v", got, want)
	}
}

// TestPendingCountTracksParkedConns pins the running count against the
// pending map it summarizes, across parking, delivery and restore.
func TestPendingCountTracksParkedConns(t *testing.T) {
	ds, det := buildScenario(t)
	s := det.NewStream()
	walk := func(s *Stream) int {
		n := 0
		for _, refs := range s.pending {
			n += len(refs)
		}
		return n
	}
	for i := range ds.Conns {
		s.Observe(&ds.Conns[i], nil)
		s.Observe(&ds.Conns[i], nil) // two conns parked on one fingerprint
	}
	if got := s.PendingCount(); got != 2*len(ds.Conns) || got != walk(s) {
		t.Fatalf("parked %d, map holds %d, want %d", got, walk(s), 2*len(ds.Conns))
	}
	restored := det.NewStream()
	restored.Restore(s.Pairs(0), s.Parked())
	if restored.PendingCount() != walk(restored) || restored.PendingCount() != s.PendingCount() {
		t.Fatalf("restored count %d, map holds %d, source %d", restored.PendingCount(), walk(restored), s.PendingCount())
	}
	for fp, c := range ds.Certs {
		s.ObserveCert(c)
		if s.PendingCount() != walk(s) {
			t.Fatalf("after %s: count %d, map holds %d", fp, s.PendingCount(), walk(s))
		}
	}
	if s.PendingCount() != 0 {
		t.Fatalf("%d still parked after every certificate arrived", s.PendingCount())
	}
	if got, want := s.Result(), det.Run(ds); !reflect.DeepEqual(got, want) {
		t.Fatalf("late-certificate verdict %+v, want %+v", got, want)
	}
}

func TestEvidenceCorroboratesAcrossSources(t *testing.T) {
	// Split the scenario's connections across two streams so the proxy
	// issuer is contradicted on different domains at each source; only
	// the merged evidence crosses the MinDomains threshold.
	a := streamOver(t, 0)
	b := streamOver(t, 1)
	if len(a.Result().Issuers) != 0 || len(b.Result().Issuers) != 0 {
		t.Fatal("scenario is vacuous: a single source already confirms the issuer")
	}

	m := NewMerge(2)
	m.AbsorbEvidence(EvidenceOf(a.Pairs(0)))
	m.AbsorbEvidence(EvidenceOf(b.Pairs(0)))
	res := m.Result()
	if len(res.Issuers) != 1 || res.Issuers[0] != "Sneaky Inspection CA" {
		t.Fatalf("merged issuers = %v", res.Issuers)
	}
	if len(res.ExcludedCerts) != 2 {
		t.Fatalf("merged exclusions = %d, want 2", len(res.ExcludedCerts))
	}
	if want := rebuildVerdict(EvidenceOf(a.Pairs(0)), EvidenceOf(b.Pairs(0))); !reflect.DeepEqual(res, want) {
		t.Fatalf("merged = %+v, rebuild = %+v", res, want)
	}
}

// TestEvidenceAbsorb: unioning evidence in reports growth exactly when a
// pair was new, and the union of two sources' pairs is what one stream
// over both would hold.
func TestEvidenceAbsorb(t *testing.T) {
	a, b := streamOver(t, 0), streamOver(t, 1)
	ev := EvidenceOf(nil)
	if !ev.Absorb(EvidenceOf(a.Pairs(0))) || !ev.Absorb(EvidenceOf(b.Pairs(0))) {
		t.Fatal("absorbing a source's first pairs reported no growth")
	}
	if ev.Absorb(EvidenceOf(a.Pairs(0))) || ev.Absorb(EvidenceOf(nil)) {
		t.Fatal("re-presenting a source reported growth")
	}
	both := EvidenceOf(append(slices.Clone(a.Pairs(0)), b.Pairs(0)...))
	if !reflect.DeepEqual(ev.Pairs(), both.Pairs()) {
		t.Fatalf("absorbed %d pairs, the two sources hold %d", len(ev.Pairs()), len(both.Pairs()))
	}
}

func TestEvidenceIsDeepCopy(t *testing.T) {
	s := streamOver(t)
	ev := EvidenceOf(s.Pairs(0))
	for _, fps := range ev.Observed {
		for fp := range fps {
			delete(fps, fp)
		}
	}
	for _, doms := range ev.Contradicted {
		for d := range doms {
			delete(doms, d)
		}
	}
	// Mutating the snapshot must not leak into the stream's verdict.
	res := s.Result()
	if len(res.Issuers) != 1 {
		t.Fatalf("stream verdict corrupted by snapshot mutation: %v", res.Issuers)
	}
}
