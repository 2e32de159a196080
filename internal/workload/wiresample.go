package workload

import (
	"fmt"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/tlswire"
	"repro/internal/zeek"
)

// WireSample materializes n of an entity's connections on the wire path:
// real DER certificates minted from the entity's plans, genuine TLS
// handshake byte streams synthesized for each connection, and the
// Zeek-style analyzer recovering records from the bytes. It exists to
// prove the bulk path (which skips serialization) and the wire path agree
// — the equivalence test in wiresample_test.go and the ablation benchmark
// both use it.
func WireSample(cfg Config, entityName string, n int) (*zeek.Dataset, error) {
	var entity *Entity
	for _, e := range Entities() {
		if e.Name == entityName {
			e := e
			entity = &e
			break
		}
	}
	if entity == nil {
		return nil, fmt.Errorf("workload: unknown entity %q", entityName)
	}
	return WireSampleEntity(cfg, entity, n)
}

// WireSampleEntity is WireSample over an explicit entity — the way to
// wire-check spec-compiled cohorts, whose entities are not in the
// built-in campus set. Entities with a HelloPreset synthesize their
// preset's ClientHello, so the analyzer's ja3/ja4 columns must match
// the bulk path's stamped fingerprints.
func WireSampleEntity(cfg Config, entity *Entity, n int) (*zeek.Dataset, error) {
	if entity.ClientPlan == nil {
		return nil, fmt.Errorf("workload: entity %q has no client plan", entity.Name)
	}
	entityName := entity.Name

	gen, err := certmodel.NewGenerator(4)
	if err != nil {
		return nil, err
	}
	rng := ids.NewRNG(cfg.Seed).Fork("wire/" + entityName)
	analyzer := zeek.NewAnalyzer(rng.Fork("uids"))

	// A private CA standing in for the entity's issuer; leaf subjects come
	// from the entity's content plans so the resulting x509.log rows look
	// exactly like the bulk path's.
	caName := entity.ClientPlan.IssuerCN
	if caName == "" {
		caName = entity.ClientPlan.IssuerOrg
	}
	if caName == "" {
		caName = entityName + " CA"
	}
	ca, err := gen.NewRootCA(caName, entity.ClientPlan.IssuerOrg,
		certmodel.DayToTime(-365), certmodel.DayToTime(3650))
	if err != nil {
		return nil, err
	}

	for i := 0; i < n; i++ {
		meta, spec, err := wireConn(gen, ca, entity, rng, i)
		if err != nil {
			return nil, err
		}
		tr := tlswire.Synthesize(spec, rng.Fork(fmt.Sprintf("tr/%d", i)))
		if _, err := analyzer.AnalyzeStreams(meta, tr.ClientToServer, tr.ServerToClient); err != nil {
			return nil, fmt.Errorf("workload: wire conn %d: %w", i, err)
		}
	}
	return analyzer.Dataset(), nil
}

// wireConn mints the DER material and transcript spec for connection #i.
func wireConn(gen *certmodel.Generator, ca *certmodel.CA, e *Entity, rng *ids.RNG, i int) (zeek.ConnMeta, tlswire.TranscriptSpec, error) {
	crng := rng.Fork(fmt.Sprintf("cert/%d", i))
	// Render the bulk-path metadata first, then mint equivalent DER.
	bulkClient := e.ClientPlan.mint(crng, e.Name, "wire-cli", i, 0, 30)
	clientDER, err := gen.IssueLeaf(ca, certmodel.Spec{
		SerialHex:  bulkClient.SerialHex,
		SubjectCN:  bulkClient.SubjectCN,
		SubjectOrg: bulkClient.SubjectOrg,
		SANDNS:     bulkClient.SANDNS,
		NotBefore:  bulkClient.NotBefore,
		NotAfter:   bulkClient.NotAfter,
		Client:     true,
	})
	if err != nil {
		return zeek.ConnMeta{}, tlswire.TranscriptSpec{}, err
	}

	var serverDER []byte
	if e.SharedCert {
		serverDER = clientDER
	} else {
		plan := e.ServerPlan
		if plan == nil {
			plan = e.ClientPlan
		}
		bulkServer := plan.mint(crng, e.Name, "wire-srv", i%4, 0, 30)
		serverDER, err = gen.IssueLeaf(ca, certmodel.Spec{
			SerialHex: bulkServer.SerialHex,
			SubjectCN: bulkServer.SubjectCN,
			SANDNS:    bulkServer.SANDNS,
			NotBefore: bulkServer.NotBefore,
			NotAfter:  bulkServer.NotAfter,
			Server:    true,
		})
		if err != nil {
			return zeek.ConnMeta{}, tlswire.TranscriptSpec{}, err
		}
	}

	meta := zeek.ConnMeta{
		TS:       certmodel.DayToTime(30 + i%600).Add(time.Duration(i%86400) * time.Second),
		OrigIP:   fmt.Sprintf("203.0.113.%d", i%250+1),
		OrigPort: uint16(32768 + i%20000),
		RespIP:   fmt.Sprintf("128.143.7.%d", i%250+1),
		RespPort: 443,
	}
	spec := tlswire.TranscriptSpec{
		Version:     tlswire.VersionTLS12,
		SNI:         e.SNI,
		ServerChain: [][]byte{serverDER, ca.DER},
		ClientChain: [][]byte{clientDER, ca.DER},
		Established: true,
		// Fingerprinted cohorts shape the hello on the wire too; ""
		// keeps the fixed legacy hello byte for byte.
		Profile: tlswire.Preset(e.HelloPreset),
	}
	return meta, spec, nil
}
