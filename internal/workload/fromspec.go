package workload

import (
	"fmt"
	"math"

	"repro/internal/certmodel"
	"repro/internal/ct"
	"repro/internal/scenario"
)

// FromSpec compiles a scenario spec into a Build; it is the only way to
// make a dataset. A nil spec is scenario.Campus(), which compiles to the
// calibrated roster with no volume scaling and no extra CT entries;
// other profiles add cohort entities after the baseline ones in spec
// order.
//
// Every default is resolved here: the seed is cfg.Seed, else the spec's,
// else Default's, and a CertScale ≤ 0 is Default's.
func FromSpec(spec *scenario.Spec, cfg Config) (*Build, error) {
	if spec == nil {
		spec = scenario.Campus()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	def := Default()
	if cfg.Seed == 0 {
		cfg.Seed = spec.Seed
	}
	if cfg.Seed == 0 {
		cfg.Seed = def.Seed
	}
	if cfg.CertScale <= 0 {
		cfg.CertScale = def.CertScale
	}
	entities, extra, err := compileCohorts(spec)
	if err != nil {
		return nil, err
	}
	if err := Validate(entities); err != nil {
		return nil, fmt.Errorf("workload: compiled spec invalid: %w", err)
	}
	return newGenerator(cfg).run(entities, extra), nil
}

// compileCohorts renders every cohort to entities (and any genuine CT
// entries its scenario needs), applying the aggregate-rate split.
func compileCohorts(spec *scenario.Spec) ([]Entity, []ct.Entry, error) {
	var entities []Entity
	var extra []ct.Entry
	for i := range spec.Cohorts {
		c := &spec.Cohorts[i]
		es, ctEntries, err := cohortEntities(c)
		if err != nil {
			return nil, nil, fmt.Errorf("workload: cohort %s: %w", c.ID, err)
		}
		if f := cohortFactor(spec, c, es); f != 1 {
			for j := range es {
				es[j].Conns = int64(math.Round(float64(es[j].Conns) * f))
				if es[j].Conns < 1 {
					es[j].Conns = 1
				}
			}
		}
		entities = append(entities, es...)
		extra = append(extra, ctEntries...)
	}
	return entities, extra, nil
}

// cohortFactor converts aggregate_rate × rate_fraction into a multiplier
// on the profile's natural connection volume. aggregate_rate 0 means
// "natural volume": the factor is exactly 1 and entity Conns pass through
// untouched (the byte-identity guarantee for the campus spec).
func cohortFactor(spec *scenario.Spec, c *scenario.Cohort, es []Entity) float64 {
	if spec.AggregateRate <= 0 {
		return 1
	}
	var natural float64
	for i := range es {
		natural += float64(es[i].Conns)
	}
	if natural <= 0 {
		return 1
	}
	return spec.AggregateRate * c.RateFraction / natural
}

// cohortEntities renders one cohort to its entity template.
func cohortEntities(c *scenario.Cohort) ([]Entity, []ct.Entry, error) {
	if c.Profile == scenario.ProfileBaselineCampus {
		// The calibrated roster carries its own per-entity arrival,
		// window, and volume model; cohort-level overrides do not apply
		// (the spec schema documents this).
		return Entities(), nil, nil
	}
	var es []Entity
	var extra []ct.Entry
	switch c.Profile {
	case scenario.ProfileIoTSharedCert:
		es = iotSharedCertEntities(c)
	case scenario.ProfileEnterpriseMiddlebox:
		es, extra = enterpriseMiddleboxEntities(c)
	case scenario.ProfileRotationWave:
		es = rotationWaveEntities(c)
	case scenario.ProfileExpiredStraggler:
		es = expiredStragglerEntities(c)
	default:
		return nil, nil, fmt.Errorf("unknown cert practice profile %q", c.Profile)
	}
	applyCohortOverrides(c, es)
	return es, extra, nil
}

// applyCohortOverrides threads the cohort's window, lifecycle, and
// arrival model onto every template entity. SNI, clients, port, and
// fingerprint are handled inside each profile builder (they are defaults
// there, not post-hoc overrides).
func applyCohortOverrides(c *scenario.Cohort, es []Entity) {
	effEnd := c.EndMonth
	if effEnd <= 0 || effEnd >= studyMonths {
		effEnd = studyMonths - 1
	}
	shape, diurnal := lifecycleShape(c.Lifecycle, c.StartMonth, effEnd)
	arrival := c.Arrival
	if arrival == "" {
		arrival = ArrivalPoisson
	}
	for i := range es {
		e := &es[i]
		e.StartMonth = c.StartMonth
		e.EndMonth = c.EndMonth
		e.Shape = shape
		e.Diurnal = diurnal
		e.Arrival = arrival
	}
}

// lifecycleShape maps a lifecycle name onto a month shape (plus the
// intra-day diurnal flag).
func lifecycleShape(lifecycle string, start, end int) (MonthShape, bool) {
	switch lifecycle {
	case scenario.LifecycleDiurnal:
		return ShapeFlat, true
	case scenario.LifecycleSpike:
		return shapeSpike(start, end), false
	case scenario.LifecycleDrain:
		return shapeDrain(start, end), false
	default: // steady (or unset)
		return ShapeFlat, false
	}
}

// shapeSpike peaks mid-window at ~5× the tails — a rollout-and-rollback
// cohort.
func shapeSpike(start, end int) MonthShape {
	mid := float64(start+end) / 2
	half := float64(end-start)/2 + 1
	return func(m int) float64 {
		d := math.Abs(float64(m)-mid) / half
		return 0.25 + 4.75*(1-d)
	}
}

// shapeDrain decays geometrically from full volume at the window start to
// ~10% at the end — a deprecation in progress.
func shapeDrain(start, end int) MonthShape {
	span := float64(end - start)
	if span <= 0 {
		span = 1
	}
	return func(m int) float64 {
		return math.Pow(0.1, float64(m-start)/span)
	}
}

func orStr(v, def string) string {
	if v != "" {
		return v
	}
	return def
}

func orInt(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func cohortPorts(c *scenario.Cohort, def uint16) []PortWeight {
	p := def
	if c.Port != 0 {
		p = uint16(c.Port)
	}
	return []PortWeight{{Port: p, Weight: 1}}
}

// iotSharedCertEntities is the §5.2.1 shared-fleet-credential pattern: a
// large device population presenting the SAME handful of client
// certificates at both connection endpoints, MQTT-style.
func iotSharedCertEntities(c *scenario.Cohort) []Entity {
	return []Entity{{
		Name:  c.ID + "-fleet",
		SNI:   orStr(c.SNI, "mqtt."+c.ID+".example.net"),
		Ports: cohortPorts(c, 8883),

		Servers: 48, MinServers: 2,
		Clients: orInt(c.Clients, 12000), MinClients: 24,

		ClientPlan: &CertPlan{
			IssuerOrg:    c.ID + " Fleet Operations",
			IssuerCN:     c.ID + " Fleet Device CA",
			ValidityDays: 3650,
			CN: []Content{
				{Kind: KindText, Text: c.ID + "-device", Weight: 0.9},
				{Kind: KindRandomHex, N: 12, Weight: 0.1},
			},
		},
		SharedCert:  true,
		CertHolders: 4,
		HelloPreset: orStr(c.Fingerprint, "iot-embedded"),

		Conns: 2_400_000,
	}}
}

// enterpriseMiddleboxEntities is the §3.2 interception scenario: an
// inspecting gateway re-signs three public SaaS domains with its private
// CA while CT holds the genuine issuances — enough distinct domains to
// trip the MinDomains corroboration threshold, so the preprocessing
// filter confirms the gateway and excludes its traffic.
func enterpriseMiddleboxEntities(c *scenario.Cohort) ([]Entity, []ct.Entry) {
	stem := orStr(c.SNI, c.ID)
	domains := []string{stem + "-crm.com", stem + "-erp.com", stem + "-mail.com"}
	gateway := c.ID + " Inspection Gateway"
	clients := orInt(c.Clients, 1800) / len(domains)
	if clients < 1 {
		clients = 1
	}

	var es []Entity
	var extra []ct.Entry
	for i, dom := range domains {
		es = append(es, Entity{
			Name:  fmt.Sprintf("%s-mbox-%d", c.ID, i),
			SNI:   "www." + dom,
			Ports: cohortPorts(c, 443),

			Servers: 6, MinServers: 1,
			Clients: clients, MinClients: 3,

			ServerPlan: &CertPlan{
				IssuerOrg:    gateway,
				IssuerCN:     gateway + " Root",
				ValidityDays: 30, // middleboxes re-sign on short windows
				CN:           []Content{{Kind: KindHost, Text: dom, Weight: 1}},
				SANFill:      1,
				SAN:          []Content{{Kind: KindHost, Text: dom, Weight: 1}},
			},
			ClientPlan: &CertPlan{
				IssuerOrg:    c.ID + " Corp",
				IssuerCN:     c.ID + " Corp Issuing CA",
				ValidityDays: 730,
				CN: []Content{
					{Kind: KindUserAccount, Weight: 0.7},
					{Kind: KindPersonName, Weight: 0.3},
				},
			},
			HelloPreset: orStr(c.Fingerprint, "middlebox-proxy"),

			Conns: 400_000,
		})
		extra = append(extra, ct.Entry{
			Domain:    dom,
			IssuerOrg: "DigiCert Inc",
			IssuerCN:  "DigiCert TLS RSA SHA256 2020 CA1",
			LoggedAt:  certmodel.DayToTime(monthFirstDay(c.StartMonth)),
		})
	}
	return es, extra
}

// rotationWaveEntities is an aggressive-rotation population: two-week
// certificate validity with two-week re-issuance, so the observation
// window sees every holder under many serials (the §5.1 validity tail).
func rotationWaveEntities(c *scenario.Cohort) []Entity {
	domain := orStr(c.SNI, c.ID+"-grid.example.org")
	issuer := c.ID + " Research Grid CA"
	rotate := &CertPlan{
		IssuerOrg:    issuer,
		IssuerCN:     issuer + " Short-Lived CA",
		ValidityDays: 14,
		ReissueDays:  14,
		CN: []Content{
			{Kind: KindUserAccount, Weight: 0.7},
			{Kind: KindPersonName, Weight: 0.3},
		},
	}
	return []Entity{{
		Name:  c.ID + "-rotation",
		SNI:   domain,
		Ports: cohortPorts(c, 9443),

		Servers: 16, MinServers: 1,
		Clients: orInt(c.Clients, 400), MinClients: 8,

		ClientPlan: rotate,
		ServerPlan: &CertPlan{
			IssuerOrg:    issuer,
			IssuerCN:     issuer + " Short-Lived CA",
			ValidityDays: 14,
			ReissueDays:  14,
			CN:           []Content{{Kind: KindHost, Text: domain, Weight: 1}},
		},
		HelloPreset: orStr(c.Fingerprint, "go-client"),

		Conns: 1_200_000,
	}}
}

// expiredStragglerEntities is the §5.1 expired-in-use population: devices
// presenting client certificates 30–400 days past NotAfter.
func expiredStragglerEntities(c *scenario.Cohort) []Entity {
	domain := orStr(c.SNI, "legacy."+c.ID+".example.org")
	issuer := c.ID + " Device CA"
	return []Entity{{
		Name:  c.ID + "-straggler",
		SNI:   domain,
		Ports: cohortPorts(c, 8443),

		Servers: 8, MinServers: 1,
		Clients: orInt(c.Clients, 600), MinClients: 6,

		ClientPlan: &CertPlan{
			IssuerOrg:      issuer,
			IssuerCN:       issuer + " Root",
			ValidityDays:   365,
			ExpiredMinDays: 30,
			ExpiredMaxDays: 400,
			CN: []Content{
				{Kind: KindRandomHex, N: 16, Weight: 0.7},
				{Kind: KindMAC, Weight: 0.3},
			},
		},
		ServerPlan: &CertPlan{
			IssuerOrg:    issuer,
			IssuerCN:     issuer + " Root",
			ValidityDays: 825,
			CN:           []Content{{Kind: KindHost, Text: domain, Weight: 1}},
		},
		HelloPreset: orStr(c.Fingerprint, "iot-embedded"),

		Conns: 300_000,
	}}
}
