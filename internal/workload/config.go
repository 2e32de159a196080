// Package workload synthesizes the 23-month campus dataset the paper
// measured, at a configurable scale (DESIGN.md §2, §5). Every entity in
// entities.go encodes numbers the paper reports — connection shares,
// client counts, issuer mixes, misconfiguration populations, CN/SAN
// content distributions — so the analyses reproduce the paper's tables and
// figures shape-for-shape.
//
// Scaling model: unique-entity counts (certificates, clients, servers) are
// divided by Config.CertScale; connection counts are NOT scaled — they are
// carried as row weights — so every percentage-denominated result is
// invariant to the scale knob.
package workload

import (
	"repro/internal/ct"
	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// Config is what one run varies. Zero fields are unset: FromSpec
// resolves them, so the generator only ever sees final values.
type Config struct {
	// Seed drives all randomness; equal seeds give identical datasets.
	// 0 takes the spec's seed, then Default's.
	Seed uint64
	// CertScale divides unique-entity counts; ≤ 0 takes Default's.
	CertScale int
}

// Default returns the calibrated run: the campus spec's seed at scale
// 1/200.
func Default() Config {
	return Config{Seed: scenario.Campus().Seed, CertScale: 200}
}

// The calibration anchors are facts of the paper, not settings.
const (
	// studyMonths is the study length, 2022-05 through 2024-03 (§3).
	studyMonths = 23
	// startShare and endShare are Figure 1's mTLS share of all TLS
	// connections in the first and the last month.
	startShare = 0.0199
	endShare   = 0.0361
	// tls13Share is the share of all TLS connections that negotiate
	// TLS 1.3 and are therefore certificate-opaque (§3.3).
	tls13Share = 0.4086
)

// scaled divides an unscaled count by CertScale with a floor of min (and
// of 1 whenever n > 0).
func (c Config) scaled(n, min int) int {
	if n <= 0 {
		return 0
	}
	s := n / c.CertScale
	if s < min {
		s = min
	}
	if s < 1 {
		s = 1
	}
	return s
}

// Arrival model names for Entity.Arrival (string-equal to the scenario
// spec's arrival vocabulary).
const (
	ArrivalPoisson  = "poisson"
	ArrivalConstant = "constant"
	ArrivalBursty   = "bursty"
)

// PortWeight assigns a share of an entity's connections to a port (or an
// inclusive port range, for Globus's 50000–51000).
type PortWeight struct {
	Port     uint16
	PortHigh uint16 // 0 = single port
	Weight   float64
}

// MonthShape modulates an entity's volume per month (0-based study month).
type MonthShape func(m int) float64

// ShapeFlat is constant volume.
func ShapeFlat(int) float64 { return 1 }

// ShapeGrowth doubles linearly over the study — the overall mTLS adoption
// trend behind Figure 1.
func ShapeGrowth(m int) float64 { return 1 + float64(m)/22 }

// ShapeHealthSurge is growth plus the near-twofold University-Health surge
// from October 2023 (study month 17) onward (§4.1).
func ShapeHealthSurge(m int) float64 {
	v := ShapeGrowth(m)
	if m >= 17 {
		v *= 2
	}
	return v
}

// Entity is one traffic population: a set of servers, a set of clients,
// their certificate plans, and a connection volume.
type Entity struct {
	Name string
	// Inbound: external clients → campus servers; otherwise outbound.
	Inbound bool
	// Health places inbound servers in the health system's prefix.
	Health bool
	// SNI for the connections ("" = missing SNI). Non-hostname SNIs (the
	// Globus "FXP DCAU Cert") are passed through verbatim.
	SNI string
	// Ports distributes connections over server ports.
	Ports []PortWeight

	// Servers/Clients are unscaled distinct-host counts; the Min fields
	// keep distribution-critical populations large enough after scaling.
	Servers    int
	MinServers int
	Clients    int
	MinClients int
	// ClientSubnets spreads inbound (external) client IPs across this
	// many /24s; 0 derives it from the client count.
	ClientSubnets int

	// ServerPlan and ClientPlan mint the certificates. A nil ClientPlan
	// makes the entity non-mutual; a nil ServerPlan emits no server
	// certificate (the university tunneling case of §3.2.2).
	ServerPlan *CertPlan
	ClientPlan *CertPlan
	// ClientPlan2 gives ClientPlan2Share of clients an additional
	// certificate from a second plan (Table 3's secondary issuers).
	ClientPlan2      *CertPlan
	ClientPlan2Share float64

	// SharedCert presents the client's certificate at BOTH endpoints of
	// the connection (§5.2.1; Globus, Outset Medical, GuardiCore).
	SharedCert bool
	// PerConnCerts mints fresh certificates per connection row (the
	// WebRTC population, where certs ≈ connections). NewServerCertProb
	// controls server-cert reuse across rows (default 1 = always fresh).
	PerConnCerts      bool
	NewServerCertProb float64

	// CertHolders, when > 0, folds the scaled client population onto this
	// many client certificates (holder = client % CertHolders) — the
	// shared-fleet-credential pattern (§5.2.1) where thousands of devices
	// present a handful of certs. 0 keeps one certificate per client.
	CertHolders int
	// Arrival scatters connections inside their day: "" or "poisson"
	// (uniform hash jitter), "constant" (evenly spaced slots), "bursty"
	// (four tight windows). "" additionally skips the jitter entirely,
	// preserving the legacy midnight timestamps byte for byte.
	Arrival string
	// Diurnal warps intra-day arrival times toward business hours. Only
	// meaningful when Arrival is set (or forces jitter on by itself).
	Diurnal bool
	// HelloPreset names a tlswire fingerprint profile; connections carry
	// its JA3/JA4 fingerprints. "" leaves the fingerprint columns unset.
	HelloPreset string

	// Conns is the total connection count over the study (unscaled; it
	// becomes row weights, not rows).
	Conns int64
	// Shape modulates volume per month (nil = ShapeFlat).
	Shape MonthShape
	// StartMonth/EndMonth bound the activity window (inclusive;
	// EndMonth 0 means "last month"). Rapid7's disappearance is
	// EndMonth=16 (§4.1).
	StartMonth, EndMonth int
	// EstablishedShare is the fraction of connections that complete
	// (default 1).
	EstablishedShare float64
	// TLS13 emits the entity's connections as certificate-opaque 1.3.
	TLS13 bool
}

// effectiveEnd resolves EndMonth.
func (e *Entity) effectiveEnd() int {
	if e.EndMonth <= 0 || e.EndMonth >= studyMonths {
		return studyMonths - 1
	}
	return e.EndMonth
}

// AssocConfig is the SLD→server-association mapping the core analysis uses
// for Table 3 (the paper's manual SLD categorization, §4.2).
type AssocConfig struct {
	HealthSLDs     []string
	UniversitySLDs []string
	VPNHostPrefix  string // hostnames starting with this are University VPN
	LocalOrgSLDs   []string
	ThirdPartySLDs []string
	GlobusSLDs     []string
}

// Build is everything the generator hands to the analysis pipeline.
type Build struct {
	// Raw is the dataset BEFORE interception filtering (§3.2
	// preprocessing runs inside the pipeline, not the generator).
	Raw *zeek.Dataset
	// CT is the transparency log seeded with genuine issuances.
	CT *ct.Log
	// Bundle is the trust-store bundle used for public/private
	// classification.
	Bundle *truststore.Bundle
	// CampusIssuers are the university-managed CA identities (the §6.1.1
	// user-account rule needs them).
	CampusIssuers []string
	// Assoc is the server-association mapping for Table 3.
	Assoc *AssocConfig
	// Plan is the address plan for direction classification.
	Plan *netsim.Plan
}
