package core

import (
	"repro/internal/certmodel"
	"repro/internal/interception"
)

// Pipeline exposes the analysis stages individually, so callers (and the
// benchmark harness, which has one benchmark per paper table/figure) can
// run and time each analysis against a preprocessed dataset.
type Pipeline struct {
	e *enriched
}

// NewPipeline runs preprocessing and returns a pipeline ready to run
// analyses: the §3.2 detector over the raw dataset, then a Builder fed
// what its verdict admits — the certificates it lets through, then every
// connection whose server leaf it lets through, in dataset order —
// through mergeInto, the admission rule every path into a Builder takes.
// The views point into in.Raw.Conns; nothing is copied. The analyses
// themselves only read the enriched state, so they may be called
// concurrently.
func NewPipeline(in *Input) *Pipeline {
	res := interception.NewDetector(in.Bundle, in.CT).Run(in.Raw)
	certs := make([]*certmodel.CertInfo, 0, len(in.Raw.Certs))
	for _, c := range in.Raw.Certs {
		certs = append(certs, c)
	}
	b := NewBuilder(in)
	mergeInto(b, []ShardState{{Certs: certs, Conns: in.Raw.Conns}}, res.Excludes)
	return b.Pipeline(&PreprocessReport{
		InterceptionIssuers: res.Issuers,
		ExcludedCerts:       len(res.ExcludedCerts),
		ExcludedShare:       res.ExcludedShare(len(in.Raw.Certs)),
		RawCerts:            len(in.Raw.Certs),
		RawConns:            len(in.Raw.Conns),
	})
}

// PreprocessReport returns the §3.2 statistics.
func (p *Pipeline) PreprocessReport() *PreprocessReport { return p.e.pre }

// CertStats computes Table 1.
func (p *Pipeline) CertStats() *CertStatsReport { return p.e.certStats() }

// Prevalence computes Figure 1.
func (p *Pipeline) Prevalence() *PrevalenceReport { return p.e.prevalence() }

// Services computes Table 2.
func (p *Pipeline) Services() *ServicesReport { return p.e.services() }

// Inbound computes Table 3.
func (p *Pipeline) Inbound() *InboundReport { return p.e.inbound() }

// Outbound computes Figure 2.
func (p *Pipeline) Outbound() *OutboundReport { return p.e.outbound() }

// DummyIssuers computes Tables 4 and 10.
func (p *Pipeline) DummyIssuers() *DummyIssuerReport { return p.e.dummyIssuers() }

// Serials computes the §5.1.2 collision report.
func (p *Pipeline) Serials() *SerialReport { return p.e.serials() }

// SharingSame computes Table 5.
func (p *Pipeline) SharingSame() *SharingSameReport { return p.e.sharingSame() }

// SharingCross computes Table 6.
func (p *Pipeline) SharingCross() *SharingCrossReport { return p.e.sharingCross() }

// BadDates computes Figure 3 / Tables 11-12.
func (p *Pipeline) BadDates() *BadDatesReport { return p.e.badDates() }

// Validity computes Figure 4.
func (p *Pipeline) Validity() *ValidityReport { return p.e.validity() }

// Expired computes Figure 5.
func (p *Pipeline) Expired() *ExpiredReport { return p.e.expired() }

// Utilization computes Table 7.
func (p *Pipeline) Utilization() *UtilizationReport { return p.e.utilization() }

// Contents computes Table 8.
func (p *Pipeline) Contents() *ContentsReport { return p.e.contents() }

// Unidentified computes Table 9.
func (p *Pipeline) Unidentified() *UnidentifiedReport { return p.e.unidentified() }

// SharedInfo computes Table 13.
func (p *Pipeline) SharedInfo() *SharedInfoReport { return p.e.sharedInfo() }

// NonMutual computes Table 14.
func (p *Pipeline) NonMutual() *NonMutualReport { return p.e.nonMutual() }

// Concerns computes the §5 takeaway aggregation.
func (p *Pipeline) Concerns() *ConcernsReport { return p.e.concerns() }

// SANTypes computes the §6.1.2 SAN-type disparity.
func (p *Pipeline) SANTypes() *SANTypesReport { return p.e.sanTypes() }

// Durations computes the duration-of-activity distributions.
func (p *Pipeline) Durations() *DurationReport { return p.e.durations() }

// Versions computes the §3.3 protocol-version mix.
func (p *Pipeline) Versions() *VersionReport { return p.e.versions() }

// Fingerprints computes the ClientHello fingerprint-prevalence join.
func (p *Pipeline) Fingerprints() *FingerprintReport { return p.e.fingerprints() }
