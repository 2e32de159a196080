package mtls

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ids"
	"repro/internal/zeek"
)

// metamorphicSeeds are the generator seeds the relations are checked on.
var metamorphicSeeds = []uint64{1, 2}

// withConns is b with its connection log replaced by conns; the
// certificates and the analysis context are shared.
func withConns(b *Build, conns []zeek.SSLRecord) *Build {
	out := *b
	out.Raw = &zeek.Dataset{Conns: conns, Certs: b.Raw.Certs}
	return &out
}

// diffReports names the reports of two analyses that are not deep-equal.
func diffReports(a, b *Analysis) []string {
	var out []string
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}

// TestAnalyzePermutationFree: the analyses read a connection log as a
// multiset. Analyze over a shuffled Raw.Conns renders byte for byte what
// the generated order renders.
func TestAnalyzePermutationFree(t *testing.T) {
	for _, seed := range metamorphicSeeds {
		b, err := Generate(nil, WithScale(2000), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := Render(Analyze(b))
		conns := append([]zeek.SSLRecord(nil), b.Raw.Conns...)
		rand.New(rand.NewSource(int64(seed))).Shuffle(len(conns), func(i, j int) {
			conns[i], conns[j] = conns[j], conns[i]
		})
		if got := Render(Analyze(withConns(b, conns))); got != want {
			t.Errorf("seed %d: the shuffled log renders differently", seed)
		}
	}
}

// TestAnalyzeWeightSplitFree: a row of weight w stands for w identical
// connections, so splitting it into rows of ⌊w/2⌋ and the rest, the new
// one under a UID of its own, leaves every report deep-equal. The one
// named exception is Preprocess.RawConns, which counts rows by
// definition and grows by the number of rows split.
func TestAnalyzeWeightSplitFree(t *testing.T) {
	for _, seed := range metamorphicSeeds {
		b, err := Generate(nil, WithScale(2000), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		want := Analyze(b)
		var conns []zeek.SSLRecord
		split := 0
		for _, rec := range b.Raw.Conns {
			if rec.Weight <= 1 {
				conns = append(conns, rec)
				continue
			}
			head, tail := rec, rec
			head.Weight = rec.Weight / 2
			tail.Weight = rec.Weight - head.Weight
			tail.UID = ids.UID(string(rec.UID) + "s")
			conns = append(conns, head, tail)
			split++
		}
		if split == 0 {
			t.Fatalf("seed %d: no row has a weight above 1", seed)
		}
		got := Analyze(withConns(b, conns))
		if d := got.Preprocess.RawConns - want.Preprocess.RawConns; d != split {
			t.Errorf("seed %d: RawConns grew by %d, want the %d rows split", seed, d, split)
		}
		got.Preprocess.RawConns = want.Preprocess.RawConns
		if diff := diffReports(got, want); len(diff) > 0 {
			t.Errorf("seed %d: splitting %d rows changed %v", seed, split, diff)
		}
	}
}
