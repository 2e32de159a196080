package mtls

// bench_test.go is the reproduction harness: one benchmark per paper table
// and figure (DESIGN.md §4's index), each of which regenerates its result
// from the shared dataset, plus end-to-end and ablation benchmarks for the
// design choices DESIGN.md calls out (fingerprint-indexed joining vs
// rescan, DPD vs port-only capture, lexicon NER vs regex-only
// classification, bulk path vs wire path).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// Each table benchmark prints its headline numbers once so a bench run
// doubles as a compact reproduction report.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/distrib"
	"repro/internal/ids"
	"repro/internal/infotype"
	"repro/internal/interception"
	"repro/internal/psl"
	"repro/internal/stats"
	"repro/internal/stream"
	"repro/internal/tlswire"
	"repro/internal/zeek"
)

var (
	benchOnce sync.Once
	benchPipe *core.Pipeline
	benchIn   *core.Input
)

func benchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchIn = InputFromBuild(campusBuild(b, 500))
		benchPipe = core.NewPipeline(benchIn)
	})
	return benchPipe
}

func logOnce(b *testing.B, format string, args ...any) {
	b.Helper()
	if b.N == 1 {
		b.Logf(format, args...)
	}
}

// BenchmarkGenerateDataset times the full 23-month synthesis of the
// campus spec, per generated connection row.
func BenchmarkGenerateDataset(b *testing.B) {
	b.ReportAllocs()
	rows := 0
	for i := 0; i < b.N; i++ {
		build, err := Generate(CampusSpec(), WithScale(2000))
		if err != nil {
			b.Fatal(err)
		}
		if len(build.Raw.Conns) == 0 {
			b.Fatal("empty dataset")
		}
		rows += len(build.Raw.Conns)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/row")
}

// BenchmarkPreprocess times §3.2: the detector, then a Builder fed what
// its verdict admits.
func BenchmarkPreprocess(b *testing.B) {
	benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(benchIn)
		if p.PreprocessReport().RawCerts == 0 {
			b.Fatal("no certs")
		}
	}
}

// BenchmarkTable1CertStats regenerates Table 1.
func BenchmarkTable1CertStats(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.CertStats()
		logOnce(b, "Table 1: total certs=%d, mTLS share=%s%%",
			r.Row("Total").Total, stats.Pct(r.Row("Total").MutualShare()))
	}
}

// BenchmarkFigure1Prevalence regenerates Figure 1.
func BenchmarkFigure1Prevalence(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Prevalence()
		logOnce(b, "Figure 1: %s%% -> %s%%", stats.Pct(r.FirstShare()), stats.Pct(r.LastShare()))
	}
}

// BenchmarkTable2Services regenerates Table 2.
func BenchmarkTable2Services(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Services()
		logOnce(b, "Table 2: inbound mTLS top=%s (%s%%)",
			r.MutualInbound[0].PortLabel, stats.Pct(r.MutualInbound[0].Share))
	}
}

// BenchmarkTable3Inbound regenerates Table 3.
func BenchmarkTable3Inbound(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Inbound()
		logOnce(b, "Table 3: health conns=%s%%, primary=%s",
			stats.Pct(r.Row(core.AssocHealth).ConnShare), r.Row(core.AssocHealth).Primary)
	}
}

// BenchmarkFigure2Outbound regenerates Figure 2.
func BenchmarkFigure2Outbound(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Outbound()
		logOnce(b, "Figure 2: amazonaws=%s%%, missing issuer=%s%%",
			stats.Pct(r.SLDShare("amazonaws.com")), stats.Pct(r.MissingIssuerShare))
	}
}

// BenchmarkTable4DummyIssuers regenerates Tables 4 and 10.
func BenchmarkTable4DummyIssuers(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.DummyIssuers()
		logOnce(b, "Table 4: %d dummy groups, %d both-endpoint", len(r.Rows), len(r.BothEndpoints))
	}
}

// BenchmarkTable10DummyBoth isolates the Appendix B view (shares the
// dummy-issuer scan; reported separately to mirror the paper's structure).
func BenchmarkTable10DummyBoth(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.DummyIssuers()
		if len(r.BothEndpoints) == 0 {
			b.Fatal("no both-endpoint dummy rows")
		}
	}
}

// BenchmarkSerialCollisions regenerates §5.1.2.
func BenchmarkSerialCollisions(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Serials()
		logOnce(b, "§5.1.2: inbound clients=%d, outbound=%d",
			r.Inbound.ClientsInvolved, r.Outbound.ClientsInvolved)
	}
}

// BenchmarkTable5SharingSameConn regenerates Table 5.
func BenchmarkTable5SharingSameConn(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.SharingSame()
		logOnce(b, "Table 5: in=%d out=%d shared conns", r.InboundConns, r.OutboundConns)
	}
}

// BenchmarkTable6SubnetSpread regenerates Table 6.
func BenchmarkTable6SubnetSpread(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.SharingCross()
		logOnce(b, "Table 6: server q=%v client q=%v", r.ServerQuantiles, r.ClientQuantiles)
	}
}

// BenchmarkFigure3IncorrectDates regenerates Figure 3 / Tables 11-12.
func BenchmarkFigure3IncorrectDates(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.BadDates()
		logOnce(b, "Figure 3: %d incorrect-date certs", r.Certs)
	}
}

// BenchmarkFigure4Validity regenerates Figure 4.
func BenchmarkFigure4Validity(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Validity()
		logOnce(b, "Figure 4: extreme=%d, max=%d days (%s)",
			r.ExtremeCount, r.MaxValidityDays, r.MaxValiditySLD)
	}
}

// BenchmarkFigure5Expired regenerates Figure 5.
func BenchmarkFigure5Expired(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Expired()
		logOnce(b, "Figure 5: in=%d out=%d expired certs, Apple cluster=%d",
			len(r.Inbound.Points), len(r.Outbound.Points), r.Outbound.AppleCluster)
	}
}

// BenchmarkTable7Utilization regenerates Table 7.
func BenchmarkTable7Utilization(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Utilization()
		logOnce(b, "Table 7: client CN=%s%%", stats.Pct(r.Row("Client certs.").CNShare()))
	}
}

// BenchmarkTable8InfoTypes regenerates Table 8.
func BenchmarkTable8InfoTypes(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Contents()
		logOnce(b, "Table 8: client-private Org/Product=%s%%",
			stats.Pct(r.Share("CN", "client-private", "Org/Product")))
	}
}

// BenchmarkTable9Unidentified regenerates Table 9.
func BenchmarkTable9Unidentified(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Unidentified()
		logOnce(b, "Table 9: server-private non-random=%s%%",
			stats.Pct(r.Share("server-private-CN", "Non-random")))
	}
}

// BenchmarkTable13SharedInfo regenerates Table 13.
func BenchmarkTable13SharedInfo(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.SharedInfo()
		logOnce(b, "Table 13: %d shared certs, private=%s%%", r.Certs, stats.Pct(r.PrivateShare))
	}
}

// BenchmarkTable14NonMutual regenerates Table 14.
func BenchmarkTable14NonMutual(b *testing.B) {
	p := benchPipeline(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.NonMutual()
		logOnce(b, "Table 14: public share=%s%%", stats.Pct(r.PublicShare))
	}
}

// BenchmarkConcernsSummary regenerates the §5 security-concern summary.
func BenchmarkConcernsSummary(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Concerns()
		logOnce(b, "Concerns: %d of %d mutual conn weight affected", r.AffectedTotal, r.MutualTotal)
	}
}

// BenchmarkDurations regenerates the activity-duration histograms.
func BenchmarkDurations(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Durations()
		logOnce(b, "Durations: client quantiles %v days", r.ClientQuantiles)
	}
}

// BenchmarkSANTypes regenerates the §6.1.2 SAN-type utilization counts.
func BenchmarkSANTypes(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.SANTypes()
		logOnce(b, "SAN types: %d certs, DNS=%d IP=%d email=%d URI=%d", r.Total, r.DNS, r.IP, r.Email, r.URI)
	}
}

// BenchmarkVersions regenerates the TLS-version shares.
func BenchmarkVersions(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Versions()
		logOnce(b, "Versions: TLSv12=%s%%", stats.Pct(r.Share("TLSv12")))
	}
}

// BenchmarkFingerprints regenerates the JA3/JA4 ClientHello table.
func BenchmarkFingerprints(b *testing.B) {
	p := benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := p.Fingerprints()
		logOnce(b, "Fingerprints: %d rows, %d of %d weight fingerprinted", len(r.Rows), r.Fingerprinted, r.Total)
	}
}

// BenchmarkContentTablesCold reads Tables 8, 9, 13 and 14 on a fresh
// pipeline, the cost of a daemon's first read after a rebuild: each
// certificate is classified on the first read of it, and the four tables
// share those classifications. Preprocessing runs with the timer stopped.
func BenchmarkContentTablesCold(b *testing.B) {
	benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := core.NewPipeline(benchIn)
		b.StartTimer()
		p.Contents()
		p.Unidentified()
		p.SharedInfo()
		p.NonMutual()
	}
}

// BenchmarkInterceptionFilter times the §3.2 detector alone: one
// Detector.Run over the raw dataset, the part of BenchmarkPreprocess that
// decides what the Builder admits.
func BenchmarkInterceptionFilter(b *testing.B) {
	benchPipeline(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := interception.NewDetector(benchIn.Bundle, benchIn.CT).Run(benchIn.Raw)
		logOnce(b, "§3.2: %d interception issuers, %d certs excluded",
			len(r.Issuers), len(r.ExcludedCerts))
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationJoinIndexed measures the fingerprint-indexed ssl↔x509
// join the pipeline uses...
func BenchmarkAblationJoinIndexed(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hits int
		for j := range ds.Conns {
			if ds.Cert(ds.Conns[j].ServerLeaf()) != nil {
				hits++
			}
		}
		if hits == 0 {
			b.Fatal("no joins")
		}
	}
}

// ...and BenchmarkAblationJoinRescan the naive alternative: resolving each
// connection's leaf by scanning the certificate list (bounded sample; the
// full quadratic scan is intractable, which is the point).
func BenchmarkAblationJoinRescan(b *testing.B) {
	ds := benchDataset(b)
	certs := make([]*certmodel.CertInfo, 0, len(ds.Certs))
	for _, c := range ds.Certs {
		certs = append(certs, c)
	}
	sample := ds.Conns
	if len(sample) > 200 {
		sample = sample[:200]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var hits int
		for j := range sample {
			want := sample[j].ServerLeaf()
			for _, c := range certs {
				if c.Fingerprint == want {
					hits++
					break
				}
			}
		}
		_ = hits
	}
}

func benchDataset(b *testing.B) *zeek.Dataset {
	b.Helper()
	benchPipeline(b)
	return benchIn.Raw
}

// BenchmarkAblationDPDSniff measures dynamic protocol detection over
// synthesized handshake prefixes (how Zeek finds TLS on ports like 20017)…
func BenchmarkAblationDPDSniff(b *testing.B) {
	streams := benchStreams(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tls int
		for _, s := range streams {
			if tlswire.SniffTLS(s) {
				tls++
			}
		}
		if tls == 0 {
			b.Fatal("nothing sniffed")
		}
	}
}

// …and BenchmarkAblationPortOnly the port-443 heuristic it replaces (which
// would miss FileWave, Globus, LDAPS, MQTT — 36% of inbound mTLS).
func BenchmarkAblationPortOnly(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tls int
		for j := range ds.Conns {
			if ds.Conns[j].RespPort == 443 {
				tls++
			}
		}
		_ = tls
	}
}

func benchStreams(b *testing.B) [][]byte {
	b.Helper()
	rng := ids.NewRNG(404)
	streams := make([][]byte, 0, 300)
	for i := 0; i < 300; i++ {
		if i%3 == 2 {
			streams = append(streams, []byte("GET / HTTP/1.1\r\nHost: example\r\n\r\n"))
			continue
		}
		tr := tlswire.Synthesize(tlswire.TranscriptSpec{
			Version: tlswire.VersionTLS12, SNI: fmt.Sprintf("h%d.example.com", i),
			ServerChain: [][]byte{[]byte("der")}, Established: true,
		}, rng)
		streams = append(streams, tr.ClientToServer)
	}
	return streams
}

// BenchmarkAblationNERLexicon measures the full CN classifier (lexicon NER
// + randomness + formats)…
func BenchmarkAblationNERLexicon(b *testing.B) {
	corpus := benchCorpus(b)
	cls := infotype.New(psl.Default(), []string{"University of Virginia"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var persons int
		for _, v := range corpus {
			if cls.Classify(v, "University of Virginia") == infotype.PersonalName {
				persons++
			}
		}
		if persons == 0 {
			b.Fatal("no persons found")
		}
	}
}

// …and BenchmarkAblationRegexOnly the regex-only baseline (prior work's
// approach, which cannot label persons/orgs/products at all).
func BenchmarkAblationRegexOnly(b *testing.B) {
	corpus := benchCorpus(b)
	list := psl.Default()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var domains int
		for _, v := range corpus {
			if list.IsDomainName(v) || infotype.IsIPAddress(v) ||
				infotype.IsMACAddress(v) || infotype.IsEmailAddress(v) ||
				infotype.IsSIPAddress(v) {
				domains++
			}
		}
		_ = domains
	}
}

func benchCorpus(b *testing.B) []string {
	b.Helper()
	ds := benchDataset(b)
	corpus := make([]string, 0, 4096)
	for _, c := range ds.Certs {
		if c.SubjectCN != "" {
			corpus = append(corpus, c.SubjectCN)
		}
		if len(corpus) == 4096 {
			break
		}
	}
	return corpus
}

// BenchmarkWirePathAnalyzer measures the full wire path: synthesize real
// DER + handshake bytes, then run the Zeek-style analyzer — the per-
// connection cost a live deployment would pay.
func BenchmarkWirePathAnalyzer(b *testing.B) {
	gen, err := certmodel.NewGenerator(4)
	if err != nil {
		b.Fatal(err)
	}
	ca, err := gen.NewRootCA("Bench Root", "Bench Org",
		certmodel.DayToTime(-365), certmodel.DayToTime(3650))
	if err != nil {
		b.Fatal(err)
	}
	serverDER, err := gen.IssueLeaf(ca, certmodel.Spec{
		SubjectCN: "bench.example.com", SANDNS: []string{"bench.example.com"},
		NotBefore: certmodel.DayToTime(0), NotAfter: certmodel.DayToTime(365), Server: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	clientDER, err := gen.IssueLeaf(ca, certmodel.Spec{
		SubjectCN: "bench-client",
		NotBefore: certmodel.DayToTime(0), NotAfter: certmodel.DayToTime(365), Client: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := ids.NewRNG(7)
	tr := tlswire.Synthesize(tlswire.TranscriptSpec{
		Version: tlswire.VersionTLS12, SNI: "bench.example.com",
		ServerChain: [][]byte{serverDER, ca.DER}, ClientChain: [][]byte{clientDER},
		Established: true,
	}, rng)
	meta := zeek.ConnMeta{TS: certmodel.DayToTime(10), OrigIP: "10.0.0.1", RespIP: "192.0.2.1", RespPort: 443}
	b.SetBytes(int64(len(tr.ClientToServer) + len(tr.ServerToClient)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		an := zeek.NewAnalyzer(ids.NewRNG(uint64(i)))
		rec, err := an.AnalyzeStreams(meta, tr.ClientToServer, tr.ServerToClient)
		if err != nil || !rec.IsMutual() {
			b.Fatalf("analyze: %v", err)
		}
	}
}

// BenchmarkTSVRoundTrip measures Zeek-log serialization end to end.
func BenchmarkTSVRoundTrip(b *testing.B) {
	ds := benchDataset(b)
	sample := zeek.NewDataset()
	sample.Conns = ds.Conns
	if len(sample.Conns) > 5000 {
		sample.Conns = sample.Conns[:5000]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := zeek.NewSSLWriter(&buf)
		for j := range sample.Conns {
			if err := w.Write(&sample.Conns[j]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		recs, err := zeek.ReadSSL(&buf)
		if err != nil || len(recs) != len(sample.Conns) {
			b.Fatalf("round trip: %v (%d rows)", err, len(recs))
		}
	}
}

// BenchmarkEndToEnd measures generate + analyze at reduced scale — the
// whole reproduction in one number (Workers 0 = one per CPU).
func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := Analyze(campusBuild(b, 2000))
		if a.CertStats.Row("Total").Total == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkEndToEndSerial is BenchmarkEndToEnd with the analyses run in
// order — the fan-out's speedup is EndToEnd vs EndToEndSerial.
func BenchmarkEndToEndSerial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := Analyze(campusBuild(b, 2000), WithWorkers(1))
		if a.CertStats.Row("Total").Total == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// --- Concurrency ablations ------------------------------------------------
//
// Preprocessing is serial; the analyses fan out across Input.Workers. Every
// worker count produces a deeply equal analysis (TestParallelDeterminism).

// benchInputWorkers clones the shared bench input with a worker setting.
func benchInputWorkers(b *testing.B, workers int) *core.Input {
	b.Helper()
	benchPipeline(b)
	in := *benchIn
	in.Workers = workers
	return &in
}

// BenchmarkAblationAnalysesSerial measures the 21 table/figure analyses
// run sequentially over a prebuilt pipeline…
func BenchmarkAblationAnalysesSerial(b *testing.B) {
	p := core.NewPipeline(benchInputWorkers(b, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.RunAll().CertStats.Row("Total").Total == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// …and BenchmarkAblationAnalysesFanOut the same analyses dispatched
// across the bounded worker pool.
func BenchmarkAblationAnalysesFanOut(b *testing.B) {
	p := core.NewPipeline(benchInputWorkers(b, 0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p.RunAll().CertStats.Row("Total").Total == 0 {
			b.Fatal("empty analysis")
		}
	}
}

// BenchmarkPipelineParallel sweeps worker counts over the full pipeline
// (preprocess + analyses) so the bench trajectory records the scaling
// curve, not just the endpoints.
func BenchmarkPipelineParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			in := benchInputWorkers(b, workers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if core.NewPipeline(in).RunAll().CertStats.Row("Total").Total == 0 {
					b.Fatal("empty analysis")
				}
			}
		})
	}
}

// BenchmarkRenderReport measures formatting every table and figure.
func BenchmarkRenderReport(b *testing.B) {
	benchPipeline(b)
	a := core.Run(benchIn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Render(a)) == 0 {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkExperimentsCompare measures the paper-vs-measured comparison.
func BenchmarkExperimentsCompare(b *testing.B) {
	benchPipeline(b)
	a := core.Run(benchIn)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Experiments(a, "bench")) == 0 {
			b.Fatal("empty experiments")
		}
	}
}

// --- O(1) stats ------------------------------------------------------------
//
// /api/v1/stats is probed every few milliseconds, so Engine.Stats and
// Aggregator.Stats must not follow the evidence or roster size: both read
// the §3.2 counts off a long-lived evidence union. Each benchmark runs at
// two dataset sizes ~10× apart; ns/op and allocs/op should be flat across
// them (a per-call rebuild of the union grows with both).

// statsBenchScales are campus scales (larger = smaller dataset).
var statsBenchScales = []int{12000, 300}

// statsBenchInput generates the campus workload at scale: the analysis
// context plus the events to feed, certificates first.
func statsBenchInput(b *testing.B, scale int) (*core.Input, []core.CertRecord, []core.ConnRecord) {
	build := campusBuild(b, scale)
	in := InputFromBuild(build)
	in.Raw = nil
	certs := make([]core.CertRecord, 0, len(build.Raw.Certs))
	for _, c := range build.Raw.Certs {
		certs = append(certs, core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	return in, certs, build.Raw.Conns
}

// BenchmarkShardedStats times Stats on a drained engine (the name the
// two-shard rows it replaced were read under).
func BenchmarkShardedStats(b *testing.B) {
	for _, scale := range statsBenchScales {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			in, certs, conns := statsBenchInput(b, scale)
			s, err := stream.New(stream.Config{Input: in})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			s.IngestCertBatch(certs)
			s.IngestConnBatch(conns)
			s.Drain()
			st := s.Stats()
			logOnce(b, "certs=%d excluded=%d issuers=%d", st.UniqueCerts, st.ExcludedCerts, st.InterceptionIssuers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if s.Stats().ConnsIngested == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// BenchmarkAggregatorStats times Stats on an aggregator synced with one
// sensor holding the whole dataset.
func BenchmarkAggregatorStats(b *testing.B) {
	for _, scale := range statsBenchScales {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			in, certs, conns := statsBenchInput(b, scale)
			e, err := stream.New(stream.Config{Input: in, TrackExport: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			e.IngestCertBatch(certs)
			e.IngestConnBatch(conns)
			e.Drain()
			mux := http.NewServeMux()
			mux.HandleFunc("/api/v1/snapshot", distrib.NewSensor(e, nil, nil).Handler())
			srv := httptest.NewServer(mux)
			b.Cleanup(srv.Close)
			a, err := distrib.NewAggregator(distrib.Config{Input: in, Sensors: []string{srv.URL}})
			if err != nil {
				b.Fatal(err)
			}
			if err := a.SyncAll(context.Background()); err != nil {
				b.Fatal(err)
			}
			st := a.Stats()
			logOnce(b, "certs=%d excluded=%d issuers=%d", st.UniqueCerts, st.ExcludedCerts, st.InterceptionIssuers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if a.Stats().ConnsIngested == 0 {
					b.Fatal("empty stats")
				}
			}
		})
	}
}

// --- O(delta) reads ----------------------------------------------------------

// BenchmarkAggregatorRead times the first report read after a sync on an
// aggregator over one sensor. catchup is the usual case — the sync
// brought a fixed 1 000-connection delta, which the merged view appends —
// and should read flat across the two dataset sizes; replay is a read
// that has to re-enrich the whole replica, priced here on the first read
// of a fresh aggregator.
func BenchmarkAggregatorRead(b *testing.B) {
	const delta = 1000
	for _, scale := range statsBenchScales {
		start := func(b *testing.B) (*stream.Engine, []core.ConnRecord, distrib.Config) {
			in, certs, conns := statsBenchInput(b, scale)
			e, err := stream.New(stream.Config{Input: in, TrackExport: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(e.Close)
			e.IngestCertBatch(certs)
			e.IngestConnBatch(conns)
			e.Drain()
			mux := http.NewServeMux()
			mux.HandleFunc("/api/v1/snapshot", distrib.NewSensor(e, nil, nil).Handler())
			srv := httptest.NewServer(mux)
			b.Cleanup(srv.Close)
			logOnce(b, "conns=%d certs=%d", len(conns), len(certs))
			return e, conns, distrib.Config{Input: in, Sensors: []string{srv.URL}}
		}
		synced := func(b *testing.B, cfg distrib.Config) *distrib.Aggregator {
			a, err := distrib.NewAggregator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := a.SyncAll(context.Background()); err != nil {
				b.Fatal(err)
			}
			return a
		}
		read := func(b *testing.B, a *distrib.Aggregator) {
			if _, err := a.Report("preprocess"); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("catchup/scale=%d", scale), func(b *testing.B) {
			e, conns, cfg := start(b)
			a := synced(b, cfg)
			read(b, a)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for fed := 0; fed < delta; {
					fed += e.IngestConnBatch(conns[:min(delta-fed, len(conns))])
				}
				e.Drain()
				if err := a.SyncAll(context.Background()); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				read(b, a)
			}
			if st := a.Stats(); st.Rebuilds != 1 {
				b.Fatalf("%d replays, want only the first read's", st.Rebuilds)
			}
		})
		b.Run(fmt.Sprintf("replay/scale=%d", scale), func(b *testing.B) {
			_, _, cfg := start(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := synced(b, cfg)
				b.StartTimer()
				read(b, a)
			}
		})
	}
}
