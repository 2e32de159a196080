package core

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/ids"
	"repro/internal/infotype"
	"repro/internal/nerlite"
	"repro/internal/race"
)

// TestContentsMemoMatchesClassify is the gate on the CN/SAN memos: every
// certificate's certContents equals a direct Classify / ClassifyUnidentified
// of its CN and of each SAN value, every memo entry equals the function it
// caches, and each distinct (value, campus) pair was classified once — a
// second read classifies nothing.
func TestContentsMemoMatchesClassify(t *testing.T) {
	p := NewPipeline(parallelInput(t, 1))
	e := p.e
	p.RunAll()
	for _, u := range e.usage.list {
		if !u.contents.filled && (u.mutualServer || u.mutualClient || u.asServer) && (u.cert.SubjectCN != "" || len(u.cert.SANDNS) > 0) {
			t.Fatalf("%s: a certificate the CN/SAN tables read was left unclassified", u.cert.Fingerprint)
		}
	}
	e.contentMu.Lock()
	for _, u := range e.usage.list {
		e.contentsOf(u) // the rest of the build, which no table reads
	}
	e.contentMu.Unlock()

	pairs := map[campusValue]bool{}
	for _, u := range e.usage.list {
		c := u.cert
		issuer := c.IssuerKey()
		campus := e.info.IsCampusIssuer(issuer)
		recognizable := nerlite.Recognize(issuer) != nerlite.LabelNone
		want := certContents{filled: true, cn: e.info.Classify(c.SubjectCN, issuer)}
		pairs[campusValue{c.SubjectCN, campus}] = true
		if c.SubjectCN != "" && want.cn == infotype.Unidentified {
			want.cnBucket = infotype.ClassifyUnidentified(c.SubjectCN, recognizable)
		}
		for _, v := range c.SANDNS {
			ty := e.info.Classify(v, issuer)
			want.san |= 1 << ty
			if ty == infotype.Unidentified {
				want.sanBuckets = append(want.sanBuckets, infotype.ClassifyUnidentified(v, recognizable))
			}
			pairs[campusValue{v, campus}] = true
		}
		if !reflect.DeepEqual(u.contents, want) {
			t.Errorf("%s (CN %q, SAN %q): memoized %+v, direct %+v", c.Fingerprint, c.SubjectCN, c.SANDNS, u.contents, want)
		}
	}

	for k, ty := range e.infoTypes {
		if want := e.info.ClassifyCampus(k.value, k.campus); ty != want {
			t.Errorf("memoized type of %+v = %v, want %v", k, ty, want)
		}
	}
	for issuer, campus := range e.campus {
		if want := e.info.IsCampusIssuer(issuer); campus != want {
			t.Errorf("memoized campus flag of %q = %v, want %v", issuer, campus, want)
		}
	}
	for issuer, v := range e.recognizable {
		if want := nerlite.Recognize(issuer) != nerlite.LabelNone; v != want {
			t.Errorf("memoized recognizability of %q = %v, want %v", issuer, v, want)
		}
	}
	if len(e.infoTypes) != len(pairs) {
		t.Fatalf("the value memo holds %d entries for %d distinct (value, campus) pairs", len(e.infoTypes), len(pairs))
	}
	p.RunAll()
	if len(e.infoTypes) != len(pairs) {
		t.Fatalf("a warm read classified %d more values", len(e.infoTypes)-len(pairs))
	}
}

// TestContentTablesConcurrentCold reads the four CN/SAN tables from
// several goroutines on one cold pipeline — each goroutine's first read
// races the others' fills — and holds every result to a serial cold
// pipeline's. Under -race it is the check on contentMu.
func TestContentTablesConcurrentCold(t *testing.T) {
	in := parallelInput(t, 1)
	tables := []func(*Pipeline) any{
		func(p *Pipeline) any { return p.Contents() },
		func(p *Pipeline) any { return p.Unidentified() },
		func(p *Pipeline) any { return p.SharedInfo() },
		func(p *Pipeline) any { return p.NonMutual() },
	}
	serial := NewPipeline(in)
	want := make([]any, len(tables))
	for i, read := range tables {
		want[i] = read(serial)
	}

	p := NewPipeline(in)
	const readers = 6
	got := make([][]any, readers)
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[r] = make([]any, len(tables))
			for j := range tables {
				i := (r + j) % len(tables) // each reader starts on a different table
				got[r][i] = tables[i](p)
			}
		}()
	}
	wg.Wait()
	for r := range got {
		for i := range tables {
			if !reflect.DeepEqual(got[r][i], want[i]) {
				t.Errorf("reader %d: table %d differs from the serial cold pipeline's", r, i)
			}
		}
	}
}

// warmTable9Allocs bounds a warm Table 9 read: the report, its maps and
// their growth, independent of the certificate count. Measured 13 at
// scale 1000.
const warmTable9Allocs = 16

// TestWarmTable9Allocs: once every certificate is classified, a Table 9
// read allocates only its report.
func TestWarmTable9Allocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector pin its internals")
	}
	p := NewPipeline(parallelInput(t, 1))
	p.Unidentified()
	allocs := testing.AllocsPerRun(10, func() { p.Unidentified() })
	t.Logf("warm Table 9: %.0f allocs per read", allocs)
	if allocs > warmTable9Allocs {
		t.Errorf("a warm Table 9 read allocates %.0f, want at most %d", allocs, warmTable9Allocs)
	}
}

// Warm Figure 4 bounds: the report (two histograms, the category
// counter, its top five) in allocations, and in bytes that plus the index
// of each certificate's earliest connection — one pointer per usage
// entry. Measured 10 allocations and 8 bytes per entry plus 1.6 KiB at
// scale 1000. Keyed by fingerprint in a map grown from empty, the index
// cost 749 KB per read at scale 500.
const (
	warmFigure4Allocs      = 13
	warmFigure4EntryBytes  = 8
	warmFigure4ReportBytes = 4 << 10
)

// TestWarmFigure4Allocs: a warm Figure 4 read allocates its report and
// one dense index over the usage entries, nothing per connection.
func TestWarmFigure4Allocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector pin its internals")
	}
	p := NewPipeline(parallelInput(t, 1))
	p.Validity()
	const runs = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	allocs := testing.AllocsPerRun(runs, func() { p.Validity() })
	runtime.ReadMemStats(&m1)
	// AllocsPerRun makes one warm-up call beside its runs.
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / (runs + 1)
	entries := len(p.e.usage.list)
	t.Logf("warm Figure 4: %.0f allocs, %.0f bytes per read over %d usage entries", allocs, bytes, entries)
	if allocs > warmFigure4Allocs {
		t.Errorf("a warm Figure 4 read allocates %.0f times, want at most %d", allocs, warmFigure4Allocs)
	}
	if limit := float64(warmFigure4EntryBytes*entries + warmFigure4ReportBytes); bytes > limit {
		t.Errorf("a warm Figure 4 read allocates %.0f bytes, want at most %.0f", bytes, limit)
	}
}

// TestCollisionIndexFollowsUsage holds the enricher's serial-collision
// index to a recount over the usage state — after a whole build, and
// after Exclude takes back certificates, some of them in collided pairs,
// and re-observes the client certificates their connections presented.
func TestCollisionIndexFollowsUsage(t *testing.T) {
	in := parallelInput(t, 1)
	b := NewBuilder(in)
	for _, c := range in.Raw.Certs {
		b.AddCert(c)
	}
	for i := range in.Raw.Conns {
		b.AddConn(&in.Raw.Conns[i])
	}
	recount := func() map[serialKey]bool {
		n := map[serialKey]int{}
		for _, u := range b.w.usage.list {
			if u.mutualServer || u.mutualClient {
				n[serialKey{u.cert.IssuerKey(), u.cert.SerialHex}]++
			}
		}
		collided := map[serialKey]bool{}
		for k, c := range n {
			if c >= 2 {
				collided[k] = true
			}
		}
		return collided
	}
	want := recount()
	if len(want) == 0 {
		t.Fatal("the build has no serial collision")
	}
	if !reflect.DeepEqual(b.e.collided, want) {
		t.Fatalf("after the build: index holds %d collided pairs, usage %d", len(b.e.collided), len(want))
	}

	// Every third server leaf of a mutual connection, and every collided
	// pair's server leaves.
	var newly []ids.Fingerprint
	seen := map[ids.Fingerprint]bool{}
	for i, cv := range b.e.conns {
		if !cv.mutual || cv.server == nil || seen[cv.server.cert.Fingerprint] {
			continue
		}
		c := cv.server.cert
		seen[c.Fingerprint] = true
		if i%3 == 0 || want[serialKey{c.IssuerKey(), c.SerialHex}] {
			newly = append(newly, c.Fingerprint)
		}
	}
	if b.Exclude(newly) == 0 {
		t.Fatal("Exclude removed no connection")
	}
	if got, want := b.e.collided, recount(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Exclude: index holds %d collided pairs, usage %d", len(got), len(want))
	}
}
