package core

// Analysis is the full result set: one field per reproduced table/figure.
type Analysis struct {
	Preprocess *PreprocessReport

	CertStats    *CertStatsReport    // Table 1
	Prevalence   *PrevalenceReport   // Figure 1
	Services     *ServicesReport     // Table 2
	Inbound      *InboundReport      // Table 3
	Outbound     *OutboundReport     // Figure 2
	DummyIssuers *DummyIssuerReport  // Table 4 + Table 10
	Serials      *SerialReport       // §5.1.2
	SharingSame  *SharingSameReport  // Table 5
	SharingCross *SharingCrossReport // Table 6
	BadDates     *BadDatesReport     // Figure 3, Tables 11–12
	Validity     *ValidityReport     // Figure 4
	Expired      *ExpiredReport      // Figure 5
	Utilization  *UtilizationReport  // Table 7
	Contents     *ContentsReport     // Table 8
	Unidentified *UnidentifiedReport // Table 9
	SharedInfo   *SharedInfoReport   // Table 13
	NonMutual    *NonMutualReport    // Table 14
	Concerns     *ConcernsReport     // §5 takeaway
	SANTypes     *SANTypesReport     // §6.1.2
	Durations    *DurationReport     // §5 duration-of-activity lens
	Versions     *VersionReport      // §3.3
	Fingerprints *FingerprintReport  // ClientHello fingerprint prevalence
}

// Run executes the whole pipeline, the analyses fanned out across
// in.Workers.
func Run(in *Input) *Analysis { return NewPipeline(in).RunAll() }

// RunAll executes every analysis over the preprocessed state. The
// table/figure computations are independent and only read the shared
// enriched views, so they fan out across Input.Workers; with one worker
// they run in order. Either way the resulting Analysis is identical.
func (p *Pipeline) RunAll() *Analysis {
	a := &Analysis{Preprocess: p.PreprocessReport()}
	runTasks(workerCount(p.e.input.Workers), []func(){
		func() { a.CertStats = p.CertStats() },
		func() { a.Prevalence = p.Prevalence() },
		func() { a.Services = p.Services() },
		func() { a.Inbound = p.Inbound() },
		func() { a.Outbound = p.Outbound() },
		func() { a.DummyIssuers = p.DummyIssuers() },
		func() { a.Serials = p.Serials() },
		func() { a.SharingSame = p.SharingSame() },
		func() { a.SharingCross = p.SharingCross() },
		func() { a.BadDates = p.BadDates() },
		func() { a.Validity = p.Validity() },
		func() { a.Expired = p.Expired() },
		func() { a.Utilization = p.Utilization() },
		func() { a.Contents = p.Contents() },
		func() { a.Unidentified = p.Unidentified() },
		func() { a.SharedInfo = p.SharedInfo() },
		func() { a.NonMutual = p.NonMutual() },
		func() { a.Concerns = p.Concerns() },
		func() { a.SANTypes = p.SANTypes() },
		func() { a.Durations = p.Durations() },
		func() { a.Versions = p.Versions() },
		func() { a.Fingerprints = p.Fingerprints() },
	})
	return a
}
