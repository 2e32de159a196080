package main

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"

	mtls "repro"
	"repro/internal/ids"
	"repro/internal/zeek"
)

var (
	testBuildOnce sync.Once
	testBuild     *mtls.Build
)

// smallBuild is a ~10k-connection campus dataset, generated once.
func smallBuild(t *testing.T) *mtls.Build {
	t.Helper()
	testBuildOnce.Do(func() {
		b, err := mtls.Generate(nil, mtls.WithScale(2000))
		if err != nil {
			t.Fatal(err)
		}
		testBuild = b
	})
	if testBuild == nil {
		t.Fatal("dataset generation failed earlier")
	}
	return testBuild
}

func testPlan(t *testing.T, pp planParams) *plan {
	t.Helper()
	b := smallBuild(t)
	p, err := planInput(b.Raw.Conns, b.Raw.Certs, pp)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// replay applies the plan the way the writer does and returns, per
// directory, the x509.log and ssl.log contents with the time each byte
// range landed: the backlog at -1, every event at its due time.
type landed struct {
	due  time.Duration
	x509 []zeek.X509Record
	ssl  []zeek.SSLRecord
}

func replay(t *testing.T, p *plan, dirs int) [][]landed {
	t.Helper()
	parse := func(x509, ssl []byte, header bool) landed {
		var l landed
		var err error
		xh, sh := []byte(nil), []byte(nil)
		if !header {
			r := newRenderer(false)
			xh, sh = r.x509Header, r.sslHeader
		}
		if l.x509, err = zeek.ReadX509(bytes.NewReader(append(bytes.Clone(xh), x509...))); err != nil {
			t.Fatalf("parse x509 rows: %v", err)
		}
		if l.ssl, err = zeek.ReadSSL(bytes.NewReader(append(bytes.Clone(sh), ssl...))); err != nil {
			t.Fatalf("parse ssl rows: %v", err)
		}
		return l
	}
	out := make([][]landed, dirs)
	for d := 0; d < dirs; d++ {
		l := parse(p.BacklogX509[d], p.BacklogSSL[d], true)
		l.due = -1
		out[d] = append(out[d], l)
	}
	for _, ev := range p.Events {
		l := parse(ev.X509, ev.SSL, false)
		l.due = ev.Due
		out[ev.Dir] = append(out[ev.Dir], l)
	}
	return out
}

// TestFirstUseOrdering: with nothing withheld, every certificate a
// connection references is in its directory's x509.log before the
// connection is in ssl.log — within one append the certificates are
// written first — and the plan loses or duplicates no row.
func TestFirstUseOrdering(t *testing.T) {
	b := smallBuild(t)
	for _, dirs := range []int{1, 2} {
		pp := planParams{Dirs: dirs, LiveRows: 4000, Window: 2 * time.Second, Seed: 3}
		p := testPlan(t, pp)
		var conns int
		roster := map[ids.Fingerprint]bool{}
		for d, appends := range replay(t, p, dirs) {
			have := map[ids.Fingerprint]bool{}
			for _, l := range appends {
				for _, x := range l.x509 {
					if have[x.Cert.Fingerprint] {
						t.Fatalf("dir %d: certificate %s written twice", d, x.Cert.Fingerprint.Short())
					}
					have[x.Cert.Fingerprint] = true
					roster[x.Cert.Fingerprint] = true
				}
				for i := range l.ssl {
					for _, chain := range [][]ids.Fingerprint{l.ssl[i].ServerChain, l.ssl[i].ClientChain} {
						for _, fp := range chain {
							if b.Raw.Certs[fp] != nil && !have[fp] {
								t.Fatalf("dir %d: connection %s at %v references %s before it was logged",
									d, l.ssl[i].UID, l.due, fp.Short())
							}
						}
					}
				}
				conns += len(l.ssl)
			}
		}
		if conns != len(b.Raw.Conns) {
			t.Errorf("dirs=%d: plan carries %d connections, dataset has %d", dirs, conns, len(b.Raw.Conns))
		}
		if len(roster) != len(b.Raw.Certs) || len(p.Roster) != len(b.Raw.Certs) {
			t.Errorf("dirs=%d: %d certificates on disk, %d in the roster, dataset has %d",
				dirs, len(roster), len(p.Roster), len(b.Raw.Certs))
		}
		var rows int
		for d := 0; d < dirs; d++ {
			rows += p.ConnRows[d] + p.CertRows[d]
		}
		if rows != p.rows() || p.ConnRows[0] == 0 || (dirs == 2 && p.ConnRows[1] == 0) {
			t.Errorf("dirs=%d: row accounting off: %v conns, %v certs", dirs, p.ConnRows, p.CertRows)
		}
		if last := p.Chunks[len(p.Chunks)-1]; last.CumConns != len(b.Raw.Conns) || last.Due != pp.Window {
			t.Errorf("dirs=%d: last chunk ends at row %d, due %v", dirs, last.CumConns, last.Due)
		}
	}
}

// TestWithheldCertificatesArriveOneSecondLate: a withheld certificate is
// appended exactly withholdDelay after the chunk that first references
// it, and nowhere else.
func TestWithheldCertificatesArriveOneSecondLate(t *testing.T) {
	b := smallBuild(t)
	pp := planParams{Dirs: 1, LiveRows: 6000, Window: 3 * time.Second, Withhold: 0.2, Seed: 5}
	p := testPlan(t, pp)
	arrived := map[ids.Fingerprint]time.Duration{}
	for _, l := range replay(t, p, 1)[0] {
		for _, x := range l.x509 {
			arrived[x.Cert.Fingerprint] = l.due
		}
	}
	var late, onTime int
	for _, ck := range p.Chunks {
		for i := ck.Lo; i < ck.Hi; i++ {
			for _, fp := range b.Raw.Conns[i].ServerChain {
				at, ok := arrived[fp]
				if !ok || at < ck.Due { // never logged, or already there
					continue
				}
				switch at {
				case ck.Due:
					onTime++
				case ck.Due + withholdDelay:
					late++
				default:
					// First referenced by an earlier chunk and withheld there.
					if at > ck.Due+withholdDelay {
						t.Fatalf("certificate %s arrives %v after the chunk due at %v", fp.Short(), at-ck.Due, ck.Due)
					}
				}
			}
		}
	}
	if late == 0 || onTime == 0 {
		t.Fatalf("withhold=0.2 produced %d late and %d on-time first uses", late, onTime)
	}
	for _, ev := range p.Events {
		if ev.Chunk == -1 && (len(ev.SSL) != 0 || ev.Certs == 0) {
			t.Errorf("late event at %v carries %d ssl bytes, %d certs", ev.Due, len(ev.SSL), ev.Certs)
		}
	}
	if len(arrived) != len(b.Raw.Certs) {
		t.Errorf("%d certificates arrive, dataset has %d", len(arrived), len(b.Raw.Certs))
	}
}

// TestScheduleIsSeeded: the same seed gives identical chunk boundaries
// and due times; another seed gives another schedule over the same
// boundaries.
func TestScheduleIsSeeded(t *testing.T) {
	pp := planParams{Dirs: 1, LiveRows: 4000, Window: 2 * time.Second, Withhold: 0.1, Seed: 11}
	a, b := testPlan(t, pp), testPlan(t, pp)
	if !reflect.DeepEqual(a.Chunks, b.Chunks) {
		t.Error("same seed, different chunks")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("same seed, different events")
	}
	pp.Seed = 12
	c := testPlan(t, pp)
	if len(c.Chunks) != len(a.Chunks) {
		t.Fatalf("chunk count depends on the seed: %d vs %d", len(a.Chunks), len(c.Chunks))
	}
	same := 0
	for k := range a.Chunks {
		if a.Chunks[k].Lo != c.Chunks[k].Lo || a.Chunks[k].Hi != c.Chunks[k].Hi {
			t.Fatalf("chunk %d boundaries depend on the seed", k)
		}
		if a.Chunks[k].Due == c.Chunks[k].Due {
			same++
		}
	}
	if same > 1 { // only the last chunk, due exactly at the window's end
		t.Errorf("%d of %d due times survive a seed change", same, len(a.Chunks))
	}
	for k := 1; k < len(a.Chunks); k++ {
		if a.Chunks[k].Due < a.Chunks[k-1].Due {
			t.Fatalf("due times not monotonic at chunk %d", k)
		}
	}
}

func TestPlanRejectsImpossibleWindows(t *testing.T) {
	b := smallBuild(t)
	if _, err := planInput(b.Raw.Conns, b.Raw.Certs, planParams{Dirs: 1, LiveRows: len(b.Raw.Conns) + 1, Window: time.Second}); err == nil {
		t.Error("more live rows than the dataset holds was accepted")
	}
	if _, err := planInput(b.Raw.Conns, b.Raw.Certs, planParams{Dirs: 1, LiveRows: 3, Window: time.Second}); err == nil {
		t.Error("fewer live rows than chunks was accepted")
	}
}
