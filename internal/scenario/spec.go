// Package scenario is the declarative workload layer: a Spec describes
// WHAT traffic a run should contain — client cohorts with rate
// fractions, arrival processes, lifecycle patterns, certificate-practice
// profiles, and ClientHello fingerprint presets — and the workload
// package compiles it into the entity machinery that synthesizes the
// dataset. The default spec (Campus) compiles to exactly the calibrated
// campus mix the paper measured; non-default specs open the workload
// axis the ROADMAP calls for.
//
// Specs are parsed from a dependency-free YAML subset (Parse), rendered
// back canonically (Render / RenderCommented), or built programmatically
// (NewBuilder). The package is a leaf: it imports nothing from the rest
// of the repository, so workload, the facade, and the CLIs can all
// depend on it without cycles.
package scenario

import (
	"fmt"
	"math"
)

// SpecVersion is the schema version this build reads and writes.
const SpecVersion = 1

// Certificate-practice profiles: what kind of certificates a cohort's
// clients and servers present (DESIGN.md §2, "Scenario specs").
const (
	// ProfileBaselineCampus is the paper's full calibrated roster —
	// every entity, misconfiguration population, interception mix, and
	// background curve of the original generator.
	ProfileBaselineCampus = "baseline-campus"
	// ProfileIoTSharedCert is an IoT fleet where thousands of devices
	// share a handful of long-lived client certificates (§5.2.1 writ
	// large).
	ProfileIoTSharedCert = "iot-shared-cert"
	// ProfileEnterpriseMiddlebox is TLS-inspection middleboxes re-signing
	// public domains under a private gateway CA, with the genuine
	// issuers visible in CT (§3.2's exclusion target).
	ProfileEnterpriseMiddlebox = "enterprise-middlebox"
	// ProfileRotationWave is aggressive short-validity rotation: 14-day
	// certificates reissued in synchronized waves (the Globus pattern).
	ProfileRotationWave = "rotation-wave"
	// ProfileExpiredStraggler is a population that keeps presenting
	// long-expired client certificates (Figure 5's stragglers).
	ProfileExpiredStraggler = "expired-straggler"
)

// Arrival processes: how a cohort's connections scatter inside a day.
const (
	ArrivalPoisson  = "poisson"
	ArrivalConstant = "constant"
	ArrivalBursty   = "bursty"
)

// Lifecycle patterns: how a cohort's volume evolves over the study.
const (
	LifecycleSteady  = "steady"
	LifecycleDiurnal = "diurnal"
	LifecycleSpike   = "spike"
	LifecycleDrain   = "drain"
)

// Profiles lists every certificate-practice profile.
func Profiles() []string {
	return []string{
		ProfileBaselineCampus, ProfileIoTSharedCert, ProfileEnterpriseMiddlebox,
		ProfileRotationWave, ProfileExpiredStraggler,
	}
}

// Arrivals lists every arrival process.
func Arrivals() []string { return []string{ArrivalPoisson, ArrivalConstant, ArrivalBursty} }

// Lifecycles lists every lifecycle pattern.
func Lifecycles() []string {
	return []string{LifecycleSteady, LifecycleDiurnal, LifecycleSpike, LifecycleDrain}
}

// Spec is one declarative workload description.
type Spec struct {
	// Version is the schema version (must be SpecVersion).
	Version int
	// Seed drives all generation randomness; equal seeds give identical
	// datasets. 0 falls back to the library default at compile time.
	Seed uint64
	// AggregateRate is the total study connection volume (unscaled; it
	// becomes row weights, not rows), split across cohorts by
	// RateFraction. 0 means "natural": every cohort emits its profile's
	// calibrated volume, as Campus() does.
	AggregateRate float64
	// Cohorts are the traffic populations, emitted in order.
	Cohorts []Cohort
}

// Cohort is one client population inside a Spec.
type Cohort struct {
	// ID names the cohort; it must be unique and is woven into entity
	// names, RNG fork labels, and report attribution.
	ID string
	// Profile is the certificate-practice profile (Profiles()).
	Profile string
	// RateFraction is this cohort's share of AggregateRate. Fractions
	// must sum to 1 (±1e-6). Required even in natural-volume mode so a
	// spec always documents its intended mix.
	RateFraction float64
	// Arrival is the intra-day arrival process ("" = poisson).
	Arrival string
	// Lifecycle is the volume pattern over the study ("" = steady).
	Lifecycle string
	// StartMonth/EndMonth bound the activity window in study months
	// (inclusive; EndMonth 0 = last month).
	StartMonth int
	EndMonth   int
	// Clients overrides the profile's unscaled distinct-client count
	// (0 = profile default). Ignored by baseline-campus, which carries
	// its own per-entity census.
	Clients int
	// Fingerprint selects a ClientHello preset for the cohort's clients
	// (tlswire.PresetNames; "" = none, rows carry no fingerprint
	// columns). Ignored by baseline-campus.
	Fingerprint string
	// SNI overrides the profile's server name ("" = profile default).
	SNI string
	// Port overrides the profile's server port (0 = profile default).
	Port int
}

// Validate checks a spec for structural errors. Parse does not validate
// (so Render∘Parse round-trips arbitrary well-formed documents); every
// compile entry point does.
func (s *Spec) Validate() error {
	if s == nil {
		return fmt.Errorf("scenario: nil spec")
	}
	if s.Version != SpecVersion {
		return fmt.Errorf("scenario: unsupported spec version %d (want %d)", s.Version, SpecVersion)
	}
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("scenario: spec has no cohorts")
	}
	if s.AggregateRate < 0 || math.IsNaN(s.AggregateRate) || math.IsInf(s.AggregateRate, 0) {
		return fmt.Errorf("scenario: aggregate_rate %v out of range", s.AggregateRate)
	}
	seen := make(map[string]bool, len(s.Cohorts))
	var fracSum float64
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		at := fmt.Sprintf("cohorts[%d]", i)
		if c.ID == "" {
			return fmt.Errorf("scenario: %s: missing id", at)
		}
		for _, r := range c.ID {
			if !(r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '-' || r == '_') {
				return fmt.Errorf("scenario: %s: id %q may only contain [a-z0-9-_]", at, c.ID)
			}
		}
		if seen[c.ID] {
			return fmt.Errorf("scenario: %s: duplicate id %q", at, c.ID)
		}
		seen[c.ID] = true
		if !contains(Profiles(), c.Profile) {
			return fmt.Errorf("scenario: %s (%s): unknown profile %q (want one of %v)", at, c.ID, c.Profile, Profiles())
		}
		if c.RateFraction <= 0 || c.RateFraction > 1 || math.IsNaN(c.RateFraction) {
			return fmt.Errorf("scenario: %s (%s): rate_fraction %v outside (0, 1]", at, c.ID, c.RateFraction)
		}
		fracSum += c.RateFraction
		if c.Arrival != "" && !contains(Arrivals(), c.Arrival) {
			return fmt.Errorf("scenario: %s (%s): unknown arrival %q (want one of %v)", at, c.ID, c.Arrival, Arrivals())
		}
		if c.Lifecycle != "" && !contains(Lifecycles(), c.Lifecycle) {
			return fmt.Errorf("scenario: %s (%s): unknown lifecycle %q (want one of %v)", at, c.ID, c.Lifecycle, Lifecycles())
		}
		if c.StartMonth < 0 || c.EndMonth < 0 {
			return fmt.Errorf("scenario: %s (%s): negative activity window", at, c.ID)
		}
		if c.EndMonth > 0 && c.StartMonth > c.EndMonth {
			return fmt.Errorf("scenario: %s (%s): start_month %d after end_month %d", at, c.ID, c.StartMonth, c.EndMonth)
		}
		if c.Clients < 0 {
			return fmt.Errorf("scenario: %s (%s): negative clients", at, c.ID)
		}
		if c.Port < 0 || c.Port > 65535 {
			return fmt.Errorf("scenario: %s (%s): port %d out of range", at, c.ID, c.Port)
		}
	}
	if math.Abs(fracSum-1) > 1e-6 {
		return fmt.Errorf("scenario: rate fractions sum to %v, want 1", fracSum)
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Campus returns the built-in default spec: the paper's calibrated
// campus population as a single baseline cohort at natural volume. Its
// seed is the library default, which a spec seed of 0 also falls back
// to.
func Campus() *Spec {
	return &Spec{
		Version: SpecVersion,
		Seed:    20240504,
		Cohorts: []Cohort{{
			ID:           "campus",
			Profile:      ProfileBaselineCampus,
			RateFraction: 1,
			Arrival:      ArrivalPoisson,
			Lifecycle:    LifecycleSteady,
		}},
	}
}
