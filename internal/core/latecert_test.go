package core

import (
	"reflect"
	"testing"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/truststore"
	"repro/internal/zeek"
)

// publicRoot is a chain fingerprint the directed tests' bundle trusts: a
// chain carrying it classifies its leaf as public.
const publicRoot ids.Fingerprint = "late-test-public-root"

// lateWorld is a two-source viewWorld over hand-made records: an input
// whose only public evidence is publicRoot and whose only associated SLD
// is virginia.edu.
func lateWorld(t *testing.T) *viewWorld {
	w := newViewWorld(t, 1, 2)
	st := truststore.NewStore("late-test")
	st.AddFingerprint(publicRoot)
	in := minimalInput(zeek.NewDataset())
	in.Raw, in.Bundle = nil, truststore.NewBundle(st)
	w.in, w.view.Input = in, in
	return w
}

// lateConn is an established connection without SNI on day `day`.
func lateConn(uid string, day int, server, client []ids.Fingerprint) ConnRecord {
	return ConnRecord{
		TS: certmodel.DayToTime(day), UID: ids.UID(uid), OrigIP: "8.8.8.8",
		RespIP: "128.143.1.1", RespPort: 443, Version: "TLSv12", Established: true,
		ServerChain: server, ClientChain: client, Weight: 1,
	}
}

func chain(fps ...ids.Fingerprint) []ids.Fingerprint { return fps }

// TestLateCertEqualsCertFirst drives the order-dependent cases of a
// certificate arriving after connections that name it, each read between
// the connections and the certificate: every read must deep-equal a fresh
// MergeShards over the same state, the certificate must be patched into
// the one Builder the first read made — no replay — and Late must count
// the connections that named it.
func TestLateCertEqualsCertFirst(t *testing.T) {
	srv := mkTestCert("a1", "Private CA", "www.virginia.edu")
	cli := mkTestCert("a2", "Private CA", "device.example.org")
	other := mkTestCert("a3", "Private CA", "other.example.net")

	cases := []struct {
		name  string
		conns []ConnRecord
		// early is rostered before the connections, late one group per
		// read after them; a group's certificates alternate sources.
		early []*certmodel.CertInfo
		late  [][]*certmodel.CertInfo
		// wantLate is Stats().Late after the last read; check looks at the
		// Builder then.
		wantLate uint64
		check    func(t *testing.T, b *Builder)
	}{
		{
			// (a) Without SNI the sld comes from the certificates, server
			// before client: resolved from the client certificate first,
			// it must move to the server's once that arrives.
			name:     "server cert after sld resolved from client cert",
			conns:    []ConnRecord{lateConn("C1", 10, chain(srv.Fingerprint), chain(cli.Fingerprint))},
			early:    []*certmodel.CertInfo{cli},
			late:     [][]*certmodel.CertInfo{{srv}},
			wantLate: 1,
			check: func(t *testing.T, b *Builder) {
				if cv := b.e.conns[0]; cv.sld != "virginia.edu" || cv.assoc != AssocUniversity {
					t.Errorf("sld %q assoc %q, want the server certificate's virginia.edu / %s", cv.sld, cv.assoc, AssocUniversity)
				}
			},
		},
		{
			// (b) The class comes from the chain of the earliest connection
			// to present the certificate: the lower position's public root.
			name: "two connections with different chains",
			conns: []ConnRecord{
				lateConn("C1", 10, chain(srv.Fingerprint, publicRoot), nil),
				lateConn("C2", 11, chain(srv.Fingerprint, "private-intermediate"), nil),
			},
			late:     [][]*certmodel.CertInfo{{srv}},
			wantLate: 2,
			check: func(t *testing.T, b *Builder) {
				if u := b.w.usage.byFP[srv.Fingerprint]; u == nil || u.class != truststore.Public {
					t.Errorf("usage %+v, want the public class of the lower position's chain", u)
				}
			},
		},
		{
			// (c) Client leaf of the earlier connection, server leaf of the
			// later: the earlier one's client chain classifies it.
			name: "client leaf first, server leaf later",
			conns: []ConnRecord{
				lateConn("C1", 10, chain(other.Fingerprint), chain(srv.Fingerprint, publicRoot)),
				lateConn("C2", 11, chain(srv.Fingerprint), nil),
			},
			early:    []*certmodel.CertInfo{other},
			late:     [][]*certmodel.CertInfo{{srv}},
			wantLate: 2,
			check: func(t *testing.T, b *Builder) {
				u := b.w.usage.byFP[srv.Fingerprint]
				if u == nil || u.class != truststore.Public || !u.asClient || !u.asServer || !u.mutualClient || u.mutualServer {
					t.Errorf("usage %+v, want public, client and server, mutual as client only", u)
				}
			},
		},
		{
			// (d) Both leaves of one connection late.
			name:     "both leaves late, server first",
			conns:    []ConnRecord{lateConn("C1", 10, chain(srv.Fingerprint), chain(cli.Fingerprint))},
			late:     [][]*certmodel.CertInfo{{srv}, {cli}},
			wantLate: 2,
		},
		{
			name:     "both leaves late, client first",
			conns:    []ConnRecord{lateConn("C1", 10, chain(srv.Fingerprint), chain(cli.Fingerprint))},
			late:     [][]*certmodel.CertInfo{{cli}, {srv}},
			wantLate: 2,
			check: func(t *testing.T, b *Builder) {
				if cv := b.e.conns[0]; cv.sld != "virginia.edu" {
					t.Errorf("sld %q, want the server certificate's", cv.sld)
				}
			},
		},
		{
			name:     "both leaves late, one capture",
			conns:    []ConnRecord{lateConn("C1", 10, chain(srv.Fingerprint), chain(cli.Fingerprint))},
			late:     [][]*certmodel.CertInfo{{cli, srv}},
			wantLate: 2,
		},
		{
			// (e) One certificate on both sides of a mutual connection
			// waits once and is marked shared.
			name:     "server leaf is the client leaf",
			conns:    []ConnRecord{lateConn("C1", 10, chain(srv.Fingerprint), chain(srv.Fingerprint))},
			late:     [][]*certmodel.CertInfo{{srv}},
			wantLate: 1,
			check: func(t *testing.T, b *Builder) {
				if u := b.w.usage.byFP[srv.Fingerprint]; u == nil || !u.sharedSameConn {
					t.Errorf("usage %+v, want sharedSameConn", u)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := lateWorld(t)
			for _, c := range tc.early {
				w.addCert(w.srcs[0], c)
			}
			for i, rec := range tc.conns {
				w.appendConn(w.srcs[i%2], rec)
			}
			w.read(t, "before the certificate")
			b := w.view.b
			for g, group := range tc.late {
				for i, c := range group {
					w.addCert(w.srcs[(g+i)%2], c)
				}
				w.read(t, "after the certificate")
			}
			// Rosters overlap across sources: the same certificates again,
			// from the other source, patch nothing twice.
			for g, group := range tc.late {
				for i, c := range group {
					w.addCert(w.srcs[(g+i+1)%2], c)
				}
			}
			w.read(t, "after the duplicates")
			if w.view.b != b || !reflect.DeepEqual(w.replays, map[ReplayReason]int{ReplayFirst: 1}) {
				t.Fatalf("replays %v (same Builder: %v), want only the first read's", w.replays, w.view.b == b)
			}
			want := MergeStats{Merges: uint64(len(tc.late) + 2), Replays: 1, Enriched: uint64(len(tc.conns)), Late: tc.wantLate}
			if st := w.view.Stats(); st != want {
				t.Errorf("Stats() = %+v, want %+v", st, want)
			}
			if len(b.waiting) != 0 {
				t.Errorf("waiting lists left behind: %v", b.waiting)
			}
			if tc.check != nil {
				tc.check(t, b)
			}
		})
	}
}

// TestLateCertExcluded is case (f): a late certificate the verdict
// excludes is never added — its arrival grows the exclusion set, and the
// connection that waited for it as its server leaf is taken back out of
// the same Builder; the one that presented it as a client leaf stays,
// still waiting.
func TestLateCertExcluded(t *testing.T) {
	mitm := mkTestCert("b1", "Intercepting Proxy", "www.virginia.edu")
	mitmClient := mkTestCert("b2", "Intercepting Proxy", "device.example.org")
	srv := mkTestCert("b3", "Private CA", "api.virginia.edu")

	w := lateWorld(t)
	w.addCert(w.srcs[0], srv)
	w.appendConn(w.srcs[0], lateConn("C1", 10, chain(mitm.Fingerprint), nil))
	w.appendConn(w.srcs[1], lateConn("C2", 11, chain(srv.Fingerprint), chain(mitmClient.Fingerprint)))
	w.read(t, "before the certificates")
	first := w.view.b
	if n := first.Conns(); n != 2 {
		t.Fatalf("%d connections merged before the verdict, want 2", n)
	}
	w.confirmed[mitm.IssuerKey()] = true
	w.addCert(w.srcs[1], mitm)
	w.addCert(w.srcs[0], mitmClient)
	w.reverdict()
	w.read(t, "after the excluded certificates")
	b := w.view.b
	if b.HasCert(mitm.Fingerprint) || b.HasCert(mitmClient.Fingerprint) {
		t.Error("an excluded certificate was added to the Builder")
	}
	if n := b.Conns(); n != 1 {
		t.Errorf("%d connections merged, want the one whose server leaf is not excluded", n)
	}
	if want := (map[ReplayReason]int{ReplayFirst: 1}); b != first || !reflect.DeepEqual(w.replays, want) {
		t.Errorf("replays %v (same Builder: %v), want %v", w.replays, b == first, want)
	}
	want := MergeStats{Merges: 2, Replays: 1, Enriched: 2, Retracted: 1}
	if st := w.view.Stats(); st != want {
		t.Errorf("Stats() = %+v, want %+v: one connection taken back, nothing patched in place", st, want)
	}
	if want := (map[ids.Fingerprint][]int32{mitmClient.Fingerprint: {0}}); !reflect.DeepEqual(b.waiting, want) {
		t.Errorf("waiting lists %v, want %v", b.waiting, want)
	}
}

// TestBuilderAddCertOrderInsensitive holds the Builder itself, without a
// view: certificates after the connections equal certificates before, a
// repeated AddCert rebuilds nothing, and a fingerprint nobody delivers
// keeps its list.
func TestBuilderAddCertOrderInsensitive(t *testing.T) {
	in := mergeInput(t)
	conns := mergeBuild.Raw.Conns[:2000]
	missing := conns[0].ServerLeaf()
	var certs []*certmodel.CertInfo
	for _, c := range mergeCerts(mergeBuild) {
		if c.Fingerprint != missing {
			certs = append(certs, c)
		}
	}

	first, last := NewBuilder(in), NewBuilder(in)
	for _, c := range certs {
		first.AddCert(c)
	}
	naming := map[ids.Fingerprint]int{}
	for i := range conns {
		first.AddConn(&conns[i])
		last.AddConn(&conns[i])
		sl, cl := conns[i].ServerLeaf(), conns[i].ClientLeaf()
		naming[sl]++
		if cl != sl {
			naming[cl]++
		}
	}
	for _, c := range certs {
		if got := last.AddCert(c); got != naming[c.Fingerprint] {
			t.Fatalf("AddCert(%s) rebuilt %d views, %d connections name it", c.Fingerprint, got, naming[c.Fingerprint])
		}
		if got := last.AddCert(c); got != 0 {
			t.Fatalf("a repeated AddCert(%s) rebuilt %d views", c.Fingerprint, got)
		}
	}
	if !reflect.DeepEqual(runBuilder(last), runBuilder(first)) {
		t.Error("certificates after the connections differ from certificates before")
	}
	if !reflect.DeepEqual(last.waiting, first.waiting) {
		t.Errorf("waiting lists differ: %v after, %v before", last.waiting, first.waiting)
	}
	if got := len(last.waiting[missing]); got == 0 || got != naming[missing] {
		t.Errorf("%d positions wait for the withheld certificate, %d connections name it", got, naming[missing])
	}
	for fp := range last.waiting {
		if fp != missing && mergeBuild.Raw.Certs[fp] != nil {
			t.Errorf("positions still wait for delivered certificate %s", fp)
		}
	}
}
