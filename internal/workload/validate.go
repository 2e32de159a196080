package workload

import (
	"fmt"
	"strings"

	"repro/internal/tlswire"
)

// Validate checks the entity roster for internal consistency. The roster
// is hand-calibrated data (entities.go); this guards against the editing
// mistakes that silently skew reproductions: port weights that don't sum,
// missing plans, inverted activity windows, content distributions with no
// weight.
func Validate(es []Entity) error {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	seen := map[string]bool{}
	for i := range es {
		e := &es[i]
		if e.Name == "" {
			bad("entity %d: empty name", i)
			continue
		}
		if seen[e.Name] {
			bad("%s: duplicate entity name", e.Name)
		}
		seen[e.Name] = true
		if e.Conns <= 0 {
			bad("%s: non-positive connection volume", e.Name)
		}
		if e.Clients <= 0 && e.ClientPlan != nil {
			bad("%s: client plan with no clients", e.Name)
		}
		if e.ClientPlan == nil && !e.TLS13 {
			bad("%s: mTLS entity without a client plan", e.Name)
		}
		if e.SharedCert && e.ServerPlan != nil {
			bad("%s: SharedCert entities must not carry a server plan", e.Name)
		}
		if !e.SharedCert && e.ServerPlan == nil && !e.TLS13 {
			bad("%s: no server certificate source", e.Name)
		}
		if len(e.Ports) == 0 {
			bad("%s: no ports", e.Name)
		}
		var w float64
		for _, p := range e.Ports {
			if p.Weight <= 0 {
				bad("%s: non-positive port weight", e.Name)
			}
			if p.PortHigh != 0 && p.PortHigh < p.Port {
				bad("%s: inverted port range %d-%d", e.Name, p.Port, p.PortHigh)
			}
			w += p.Weight
		}
		if w <= 0 {
			bad("%s: port weights sum to zero", e.Name)
		}
		end := e.effectiveEnd()
		if e.StartMonth < 0 || e.StartMonth > end {
			bad("%s: activity window [%d, %d] invalid", e.Name, e.StartMonth, end)
		}
		if e.ClientPlan2 != nil && (e.ClientPlan2Share <= 0 || e.ClientPlan2Share > 1) {
			bad("%s: secondary plan share %f out of range", e.Name, e.ClientPlan2Share)
		}
		if e.CertHolders < 0 {
			bad("%s: negative CertHolders", e.Name)
		}
		switch e.Arrival {
		case "", ArrivalPoisson, ArrivalConstant, ArrivalBursty:
		default:
			bad("%s: unknown arrival model %q", e.Name, e.Arrival)
		}
		if e.HelloPreset != "" && tlswire.Preset(e.HelloPreset) == nil {
			bad("%s: unknown hello preset %q", e.Name, e.HelloPreset)
		}
		for _, pc := range []struct {
			name string
			plan *CertPlan
		}{{"client", e.ClientPlan}, {"client2", e.ClientPlan2}, {"server", e.ServerPlan}} {
			if pc.plan == nil {
				continue
			}
			if err := validatePlan(pc.plan); err != nil {
				bad("%s: %s plan: %v", e.Name, pc.name, err)
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("workload: roster invalid:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

func validatePlan(p *CertPlan) error {
	if len(p.CN) == 0 {
		// Issuerless plans with no CN content would emit fully empty
		// subjects, which Table 7's ~99.8% CN utilization contradicts.
		return fmt.Errorf("no CN content distribution")
	}
	var w float64
	for _, c := range p.CN {
		if c.Weight < 0 {
			return fmt.Errorf("negative CN weight")
		}
		w += c.Weight
	}
	if w <= 0 {
		return fmt.Errorf("CN weights sum to zero")
	}
	if p.SANFill < 0 || p.SANFill > 1 {
		return fmt.Errorf("SANFill %f out of range", p.SANFill)
	}
	if p.SANFill > 0 && len(p.SAN) == 0 {
		return fmt.Errorf("SANFill set but no SAN contents")
	}
	if p.IncorrectDates && p.ExpiredMaxDays > 0 {
		return fmt.Errorf("IncorrectDates and Expired are mutually exclusive")
	}
	if p.LongValidityShare > 0 && p.LongValidityMax < p.LongValidityMin {
		return fmt.Errorf("long validity range inverted")
	}
	if p.ReissueDays < 0 || p.ValidityDays < 0 {
		return fmt.Errorf("negative day counts")
	}
	if p.ReissueDays > 0 && p.ValidityDays > 0 && p.ValidityDays < p.ReissueDays {
		return fmt.Errorf("reissue period exceeds validity (holders would present expired certs)")
	}
	return nil
}
