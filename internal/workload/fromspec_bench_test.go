package workload

import (
	"testing"

	"repro/internal/scenario"
)

// BenchmarkSpecCompile prices compiling the campus spec and the
// three-cohort mix, which pays only for the extra cohorts it generates.
func BenchmarkSpecCompile(b *testing.B) {
	cfg := Config{CertScale: 2000}
	b.Run("spec-campus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FromSpec(scenario.Campus(), cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	spec := benchThreeCohortSpec(b)
	b.Run("spec-three-cohort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FromSpec(spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSpecParse prices the YAML round trip for the campus spec.
func BenchmarkSpecParse(b *testing.B) {
	data := []byte(scenario.Render(scenario.Campus()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFingerprintSampling prices stamping JA3/JA4 onto generated
// connections: "cold" pays one real ClientHello synthesis per distinct
// (preset, SNI), "warm" is the memoized per-connection cost.
func BenchmarkFingerprintSampling(b *testing.B) {
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newGenerator(Config{})
			g.helloFP("iot-embedded", "mqtt.fleet.example.net")
		}
	})
	b.Run("warm", func(b *testing.B) {
		g := newGenerator(Config{})
		g.helloFP("iot-embedded", "mqtt.fleet.example.net")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.helloFP("iot-embedded", "mqtt.fleet.example.net")
		}
	})
}

func benchThreeCohortSpec(b *testing.B) *scenario.Spec {
	b.Helper()
	spec, err := scenario.NewBuilder().
		Seed(7).
		AggregateRate(2_000_000).
		Cohort("fleet", "iot-shared-cert", 0.5,
			scenario.Arrival("constant"), scenario.Lifecycle("diurnal")).
		Cohort("acme", "enterprise-middlebox", 0.3,
			scenario.Lifecycle("spike"), scenario.Window(2, 12)).
		Cohort("grid", "rotation-wave", 0.2,
			scenario.Arrival("bursty"), scenario.Lifecycle("drain"),
			scenario.Fingerprint("chrome")).
		Build()
	if err != nil {
		b.Fatal(err)
	}
	return spec
}
