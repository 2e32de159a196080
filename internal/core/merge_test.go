package core

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/netsim"
	"repro/internal/workload"
)

// mergeBuild is a small seeded dataset shared by the merge tests.
var mergeBuild *workload.Build

func mergeInput(t *testing.T) *Input {
	t.Helper()
	if mergeBuild == nil {
		var err error
		if mergeBuild, err = workload.FromSpec(nil, workload.Config{CertScale: 300}); err != nil {
			t.Fatal(err)
		}
	}
	return inputFromBuild(mergeBuild)
}

// mergeCerts orders the build's roster deterministically.
func mergeCerts(b *workload.Build) []*certmodel.CertInfo {
	certs := make([]*certmodel.CertInfo, 0, len(b.Raw.Certs))
	for _, c := range b.Raw.Certs {
		certs = append(certs, c)
	}
	sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	return certs
}

// runBuilder materializes a builder under an empty preprocess report,
// the common footing the merge tests compare on.
func runBuilder(b *Builder) *Analysis {
	return b.Pipeline(&PreprocessReport{}).RunAll()
}

// TestMergeShardsZeroShards: no shards at all is a valid (empty)
// deployment — every report materializes without panicking.
func TestMergeShardsZeroShards(t *testing.T) {
	in := mergeInput(t)
	a := runBuilder(MergeShards(in, nil, nil))
	if got := a.CertStats.Row("Total").Total; got != 0 {
		t.Errorf("zero shards produced %d certificates", got)
	}
}

// TestMergeShardsAllEmpty: shards that admitted nothing merge to the
// same empty analysis as no shards.
func TestMergeShardsAllEmpty(t *testing.T) {
	in := mergeInput(t)
	empty := runBuilder(MergeShards(in, nil, nil))
	got := runBuilder(MergeShards(in, []ShardState{{}, {}, {}}, nil))
	if !reflect.DeepEqual(empty, got) {
		t.Error("three empty shards differ from zero shards")
	}
}

// TestMergeShardsDuplicateRoster: a certificate fanned out to several
// shards is admitted once, first observation wins — a conflicting later
// copy (same fingerprint, different contents) is ignored.
func TestMergeShardsDuplicateRoster(t *testing.T) {
	in := mergeInput(t)
	certs := mergeCerts(mergeBuild)

	imposter := *certs[0]
	imposter.SubjectCN = "imposter.example"
	imposter.IssuerOrg = "Imposter CA"

	base := ShardState{Certs: certs}
	want := runBuilder(MergeShards(in, []ShardState{base}, nil))

	// The duplicate roster entries — one identical, one conflicting —
	// land on a second shard and must change nothing.
	dup := ShardState{Certs: []*certmodel.CertInfo{certs[0], &imposter}}
	b := MergeShards(in, []ShardState{base, dup}, nil)
	if c := b.e.ds.Cert(certs[0].Fingerprint); c == nil || c.SubjectCN != certs[0].SubjectCN {
		t.Error("later duplicate overwrote the first-observed certificate")
	}
	if !reflect.DeepEqual(want, runBuilder(b)) {
		t.Error("duplicate roster fingerprints changed the merged analysis")
	}

	// Order inverted: the imposter's shard comes first, so its copy of
	// the fingerprint wins — the guarantee is "first observation", not
	// "majority".
	b2 := MergeShards(in, []ShardState{{Certs: []*certmodel.CertInfo{&imposter}}, base}, nil)
	if c := b2.e.ds.Cert(certs[0].Fingerprint); c == nil || c.SubjectCN != "imposter.example" {
		t.Error("imposter-first merge did not keep the first-observed copy")
	}
}

// TestMergeShardsExcludeFilter: the §3.2 exclusion hook keeps excluded
// certificates out of the roster and drops connections whose server
// leaf is excluded.
func TestMergeShardsExcludeFilter(t *testing.T) {
	in := mergeInput(t)
	certs := mergeCerts(mergeBuild)

	// Pick a fingerprint actually used as a server leaf so the conn
	// filter is exercised.
	var victim ids.Fingerprint
	for i := range mergeBuild.Raw.Conns {
		if sl := mergeBuild.Raw.Conns[i].ServerLeaf(); sl != "" {
			victim = sl
			break
		}
	}
	if victim == "" {
		t.Fatal("no connection with a server leaf in the build")
	}

	shard := ShardState{Certs: certs}
	for i := range mergeBuild.Raw.Conns {
		shard.Conns = append(shard.Conns, mergeBuild.Raw.Conns[i])
		shard.Seqs = append(shard.Seqs, uint64(i))
	}
	excl := func(fp ids.Fingerprint) bool { return fp == victim }
	merged := MergeShards(in, []ShardState{shard}, excl)
	if merged.HasCert(victim) {
		t.Error("excluded certificate survived in the roster")
	}

	kept := 0
	for i := range mergeBuild.Raw.Conns {
		if mergeBuild.Raw.Conns[i].ServerLeaf() != victim {
			kept++
		}
	}
	if merged.Conns() != kept {
		t.Errorf("merge kept %d conns, want %d after excluding %s", merged.Conns(), kept, victim)
	}
}

// suffixes cuts full source states down to what lies beyond the cursors,
// as a MergedView's owner answers Capture.
func suffixes(full []ShardState, since []MergeCursor) []ShardState {
	out := make([]ShardState, len(full))
	for i, sh := range full {
		k, _ := slices.BinarySearch(sh.Seqs, since[i].Seq)
		out[i] = ShardState{
			Certs: sh.Certs[min(since[i].Certs, len(sh.Certs)):],
			Conns: sh.Conns[k:],
			Seqs:  sh.Seqs[k:],
		}
	}
	return out
}

// TestMergedViewCachesOnVersionVector pins the one caching decision
// Sharded and the aggregator share: an unchanged version vector reuses
// the Builder without capturing the sources again, the first read is the
// one replay, a bump of any single component costs exactly one capture
// and one catch-up onto the very same Builder, and Stats reports the
// replay count and staleness the daemons serve as Rebuilds/Dirty.
func TestMergedViewCachesOnVersionVector(t *testing.T) {
	in := mergeInput(t)
	shards := make([]ShardState, 2)
	shards[0].Certs = mergeCerts(mergeBuild) // roster on one shard, overlapping the other
	shards[1].Certs = shards[0].Certs[:1]
	for i := range mergeBuild.Raw.Conns {
		s := &shards[i%2]
		s.Conns = append(s.Conns, mergeBuild.Raw.Conns[i])
		s.Seqs = append(s.Seqs, uint64(i))
	}
	vers := []uint64{1, 1}
	captures, merged := 0, 0
	var replays []ReplayReason
	v := &MergedView{
		Input:    in,
		Versions: func() []uint64 { return slices.Clone(vers) },
		Capture: func(since []MergeCursor) MergeCapture {
			captures++
			return MergeCapture{
				Shards:   suffixes(shards, since),
				Versions: slices.Clone(vers),
				Lost:     make([]uint64, len(shards)),
				Verdict:  interception.NewMerge(2).Result(),
				RawConns: uint64(len(mergeBuild.Raw.Conns)),
				RawCerts: len(shards[0].Certs),
			}
		},
		OnMerge: func(_ time.Duration, why ReplayReason, _, _ int) {
			merged++
			if why != "" {
				replays = append(replays, why)
			}
		},
	}
	check := func(step string, wantMerges uint64, wantStale bool) {
		t.Helper()
		want := MergeStats{Merges: wantMerges, Replays: min(wantMerges, 1), Stale: wantStale}
		if wantMerges > 0 {
			want.Enriched = uint64(len(mergeBuild.Raw.Conns))
		}
		if got := v.Stats(); got != want {
			t.Errorf("%s: Stats() = %+v, want %+v", step, got, want)
		}
		if captures != int(wantMerges) || merged != int(wantMerges) {
			t.Errorf("%s: %d captures, %d OnMerge calls, want %d each", step, captures, merged, wantMerges)
		}
	}
	materialize := func() (b *Builder, pre PreprocessReport) {
		v.WithPipeline(func(p *Pipeline) { pre = *p.PreprocessReport() })
		return v.b, pre
	}

	check("before the first read", 0, true)
	b1, pre := materialize()
	check("first read", 1, false)
	if pre.RawCerts != len(shards[0].Certs) || pre.RawConns != len(mergeBuild.Raw.Conns) {
		t.Errorf("preprocess report counts %d certs / %d conns, want %d distinct / %d",
			pre.RawCerts, pre.RawConns, len(shards[0].Certs), len(mergeBuild.Raw.Conns))
	}
	if b2, _ := materialize(); b2 != b1 {
		t.Error("equal version vector rebuilt the Builder")
	}
	check("second read, nothing moved", 1, false)

	for i := range vers {
		vers[i]++
		check("source moved", uint64(1+i), true)
		if b3, _ := materialize(); b3 != b1 {
			t.Errorf("bump of component %d with nothing lost replaced the Builder", i)
		}
		check("read after the bump", uint64(2+i), false)
		if b4, _ := materialize(); b4 != b1 {
			t.Error("equal version vector rebuilt the Builder")
		}
	}
	if !slices.Equal(replays, []ReplayReason{ReplayFirst}) {
		t.Errorf("replays %v, want only the first read's", replays)
	}
	if got := runBuilder(v.b); !reflect.DeepEqual(runBuilder(MergeShards(in, shards, nil)), got) {
		t.Error("the view's Builder differs from a direct MergeShards over the same state")
	}
}

// TestMergeShardsValidityOrderFree: Figure 4 buckets a client certificate
// by one connection's direction, so a certificate one sensor saw outbound
// and another inbound must land in the same bucket whichever sensor's
// connection merges first — an aggregator merges in sync-landing order.
func TestMergeShardsValidityOrderFree(t *testing.T) {
	in := mergeInput(t)
	var out, inb *ConnRecord
	for i := range mergeBuild.Raw.Conns {
		rec := &mergeBuild.Raw.Conns[i]
		c := mergeBuild.Raw.Cert(rec.ClientLeaf())
		if !rec.IsMutual() || !rec.Established || c == nil || c.HasIncorrectDates() {
			continue
		}
		switch in.Plan.DirectionOf(rec.OrigIP, rec.RespIP) {
		case netsim.Outbound:
			out = cmp.Or(out, rec)
		case netsim.Inbound:
			inb = cmp.Or(inb, rec)
		}
	}
	if out == nil || inb == nil {
		t.Fatal("the build has no mutual connection in both directions")
	}
	// The inbound connection presents the outbound one's client
	// certificate.
	shared := *inb
	shared.ClientChain = out.ClientChain
	roster := mergeCerts(mergeBuild)
	merge := func(outSeq, inSeq uint64) *ValidityReport {
		return MergeShards(in, []ShardState{
			{Certs: roster, Conns: []ConnRecord{*out}, Seqs: []uint64{outSeq}},
			{Conns: []ConnRecord{shared}, Seqs: []uint64{inSeq}},
		}, nil).Pipeline(&PreprocessReport{}).Validity()
	}
	outFirst, inFirst := merge(0, 1), merge(1, 0)
	if n := outFirst.InboundHist.Total() + outFirst.OutboundHist.Total(); n != 1 {
		t.Fatalf("the shared certificate was bucketed %d times, want once", n)
	}
	if !reflect.DeepEqual(outFirst, inFirst) {
		t.Errorf("Figure 4 depends on merge order: outbound first buckets %d in / %d out, inbound first %d / %d",
			outFirst.InboundHist.Total(), outFirst.OutboundHist.Total(),
			inFirst.InboundHist.Total(), inFirst.OutboundHist.Total())
	}
}

// TestMergeShardsExpiredOrderFree: Figure 5 places an expired client
// certificate by its earliest expired connection (TS, then UID), so a
// certificate one sensor saw outbound and another saw inbound an hour
// later is one outbound point whichever sensor's connection merges first.
func TestMergeShardsExpiredOrderFree(t *testing.T) {
	in := mergeInput(t)
	var out, inb *ConnRecord
	for i := range mergeBuild.Raw.Conns {
		rec := &mergeBuild.Raw.Conns[i]
		c := mergeBuild.Raw.Cert(rec.ClientLeaf())
		if !rec.IsMutual() || !rec.Established || c == nil || c.HasIncorrectDates() {
			continue
		}
		switch in.Plan.DirectionOf(rec.OrigIP, rec.RespIP) {
		case netsim.Outbound:
			out = cmp.Or(out, rec)
		case netsim.Inbound:
			inb = cmp.Or(inb, rec)
		}
	}
	if out == nil || inb == nil {
		t.Fatal("the build has no mutual connection in both directions")
	}
	// The outbound connection is made a month after its client
	// certificate expired; the inbound one presents that certificate an
	// hour later.
	expired := *out
	expired.TS = mergeBuild.Raw.Cert(out.ClientLeaf()).NotAfter.Add(30 * 24 * time.Hour)
	shared := *inb
	shared.ClientChain = out.ClientChain
	shared.TS = expired.TS.Add(time.Hour)
	roster := mergeCerts(mergeBuild)
	merge := func(outSeq, inSeq uint64) *ExpiredReport {
		return MergeShards(in, []ShardState{
			{Certs: roster, Conns: []ConnRecord{expired}, Seqs: []uint64{outSeq}},
			{Conns: []ConnRecord{shared}, Seqs: []uint64{inSeq}},
		}, nil).Pipeline(&PreprocessReport{}).Expired()
	}
	outFirst, inFirst := merge(0, 1), merge(1, 0)
	for _, rep := range []*ExpiredReport{outFirst, inFirst} {
		if len(rep.Inbound.Points) != 0 || len(rep.Outbound.Points) != 1 {
			t.Fatalf("the shared certificate gave %d inbound / %d outbound points, want 0 / 1",
				len(rep.Inbound.Points), len(rep.Outbound.Points))
		}
	}
	if !reflect.DeepEqual(outFirst, inFirst) {
		t.Errorf("Figure 5 depends on merge order:\noutbound first %+v\ninbound first  %+v", outFirst, inFirst)
	}
}
