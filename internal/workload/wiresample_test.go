package workload

import (
	"testing"

	"repro/internal/certmodel"
	"repro/internal/scenario"
)

// TestWireSampleEquivalence proves the wire path — real DER, real TLS
// byte streams, the passive analyzer — recovers the same certificate
// population the bulk path emits directly: same subjects, same issuer
// identities, same serial behaviour, same mutuality.
func TestWireSampleEquivalence(t *testing.T) {
	cfg := Default()
	const n = 12
	ds, err := WireSample(cfg, "globus-in", n)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Conns) != n {
		t.Fatalf("conns = %d, want %d", len(ds.Conns), n)
	}
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if !c.IsMutual() || !c.Established {
			t.Fatalf("wire conn %d not mutual/established: %+v", i, c)
		}
		// Globus presents the SAME certificate at both endpoints.
		if c.ServerLeaf() != c.ClientLeaf() {
			t.Fatalf("wire conn %d lost same-cert sharing", i)
		}
		leaf := ds.Cert(c.ClientLeaf())
		if leaf == nil {
			t.Fatal("leaf not recovered from wire")
		}
		// The §5.1.2 dummy serial survives DER encoding and re-parsing.
		if leaf.SerialHex != "00" {
			t.Fatalf("serial = %q, want 00", leaf.SerialHex)
		}
		if got := leaf.ValidityDays(); got != 14 {
			t.Fatalf("validity = %d days, want 14", got)
		}
		// SNI is the literal Globus string, as in the bulk path.
		if c.SNI != "FXP DCAU Cert" {
			t.Fatalf("SNI = %q", c.SNI)
		}
	}
}

func TestWireSampleNonShared(t *testing.T) {
	cfg := Default()
	ds, err := WireSample(cfg, "mqtt-alarmnet", 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if !c.IsMutual() {
			t.Fatal("not mutual")
		}
		if c.ServerLeaf() == c.ClientLeaf() {
			t.Fatal("non-shared entity produced shared certs")
		}
	}
	// Client certs carry the Honeywell issuer through real DER.
	var honeywell int
	for _, cert := range ds.Certs {
		if cert.IssuerOrg == "Honeywell International Inc" {
			honeywell++
		}
	}
	if honeywell == 0 {
		t.Fatal("issuer identity lost on the wire path")
	}
}

func TestWireSampleIncorrectDates(t *testing.T) {
	// Incorrect-date certs (Figure 3) survive real DER round trips.
	cfg := Default()
	ds, err := WireSample(cfg, "idrive-baddates", 4)
	if err != nil {
		t.Fatal(err)
	}
	var bad int
	for _, cert := range ds.Certs {
		if cert.HasIncorrectDates() {
			bad++
		}
	}
	if bad == 0 {
		t.Fatal("incorrect dates lost on the wire path")
	}
	// And they still land before the epoch the paper reports (1849/1850).
	for _, cert := range ds.Certs {
		if cert.HasIncorrectDates() && cert.NotAfter.After(certmodel.DayToTime(0)) {
			t.Fatalf("bad-date cert NotAfter = %v, want 19th century", cert.NotAfter)
		}
	}
}

func TestWireSampleErrors(t *testing.T) {
	cfg := Default()
	if _, err := WireSample(cfg, "no-such-entity", 1); err == nil {
		t.Fatal("unknown entity should error")
	}
}

// TestWireSampleFingerprintAgreement closes the fingerprint loop: a
// spec-compiled cohort entity with a HelloPreset, wire-sampled through
// real TLS bytes and the passive analyzer, must yield exactly the
// JA3/JA4 the bulk path stamps for the same (preset, SNI) — the two
// paths share tlswire's hello synthesis, and this proves it end to end.
func TestWireSampleFingerprintAgreement(t *testing.T) {
	cfg := Default()
	spec := threeCohortSpec()
	entity := findSpecEntity(t, spec, "fleet-fleet")
	if entity.HelloPreset == "" {
		t.Fatalf("entity %q has no hello preset", entity.Name)
	}
	ds, err := WireSampleEntity(cfg, entity, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Conns) == 0 {
		t.Fatal("no wire conns")
	}
	g := newGenerator(cfg)
	wantJA3, wantJA4 := g.helloFP(entity.HelloPreset, entity.SNI)
	for i := range ds.Conns {
		c := &ds.Conns[i]
		if c.JA3 != wantJA3 || c.JA4 != wantJA4 {
			t.Fatalf("wire conn %d fingerprints (%s, %s), bulk stamps (%s, %s)",
				i, c.JA3, c.JA4, wantJA3, wantJA4)
		}
	}

	// Presetless entities keep the fixed legacy hello: one stable JA3
	// that is NOT any preset's.
	legacy, err := WireSample(cfg, "mqtt-alarmnet", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy.Conns {
		if legacy.Conns[i].JA3 == wantJA3 {
			t.Fatal("legacy hello collided with a preset fingerprint")
		}
	}
}

// findSpecEntity compiles spec's cohorts and returns the named entity.
func findSpecEntity(t *testing.T, spec *scenario.Spec, name string) *Entity {
	t.Helper()
	entities, _, err := compileCohorts(spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entities {
		if entities[i].Name == name {
			return &entities[i]
		}
	}
	t.Fatalf("entity %q not compiled from spec", name)
	return nil
}
