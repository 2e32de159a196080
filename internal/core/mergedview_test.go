package core

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/certmodel"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/race"
)

// viewSource is one source of a MergedView as the property test keeps
// it: a roster log, a window under ascending sequences, and the two
// counters an owner publishes.
type viewSource struct {
	certs   []*certmodel.CertInfo
	conns   []ConnRecord
	seqs    []uint64
	version uint64
	lost    uint64
}

// issuerCerts counts the build's certificates per issuer.
var issuerCerts = sync.OnceValue(func() map[string]int {
	n := map[string]int{}
	for _, c := range mergeBuild.Raw.Certs {
		n[c.IssuerKey()]++
	}
	return n
})

// viewWorld is the whole state a MergedView reads — sources, the §3.2
// verdict, the raw counts — plus the bookkeeping the program needs to
// inject each replay reason on purpose and to know, independently of the
// view, which reason a step must produce.
type viewWorld struct {
	in  *Input
	rng *rand.Rand

	srcs      []*viewSource
	roster    map[ids.Fingerprint]bool // fingerprints on any source's roster
	confirmed map[string]bool          // issuers the verdict confirms
	verdict   *interception.Result
	rawConns  uint64
	nextSeq   uint64 // even numbers; odd ones are left for out-of-order inserts
	pool      int    // next connection of the build to append

	// then, when set, is the next step: the second half of a case that
	// takes two reads to drive.
	then func(*viewSource) string

	view      *MergedView
	merges    int
	replays   map[ReplayReason]int
	late      int            // views re-enriched in place, as OnMerge reported them
	retracted int            // views taken back out, as OnMerge reported them
	did       map[string]int // steps run, by description
}

func newViewWorld(t *testing.T, seed int64, n int) *viewWorld {
	w := &viewWorld{
		in:        mergeInput(t),
		rng:       rand.New(rand.NewSource(seed)),
		roster:    map[ids.Fingerprint]bool{},
		confirmed: map[string]bool{},
		replays:   map[ReplayReason]int{},
		did:       map[string]int{},
	}
	for i := 0; i < n; i++ {
		w.srcs = append(w.srcs, &viewSource{})
	}
	w.pool = w.rng.Intn(len(mergeBuild.Raw.Conns))
	w.reverdict()
	w.view = &MergedView{
		Input: w.in,
		Versions: func() []uint64 {
			vers := make([]uint64, len(w.srcs))
			for i, s := range w.srcs {
				vers[i] = s.version
			}
			return vers
		},
		Capture: func(since []MergeCursor) MergeCapture {
			c := MergeCapture{
				Shards:   suffixes(w.full(), since),
				Versions: w.view.Versions(),
				Lost:     make([]uint64, len(w.srcs)),
				Verdict:  w.verdict,
				RawConns: w.rawConns,
				RawCerts: len(w.roster),
			}
			for i, s := range w.srcs {
				c.Lost[i] = s.lost
			}
			return c
		},
		OnMerge: func(_ time.Duration, why ReplayReason, late, retracted int) {
			w.merges++
			w.late += late
			w.retracted += retracted
			if why != "" {
				w.replays[why]++
			}
		},
	}
	return w
}

// full lists every source's whole state.
func (w *viewWorld) full() []ShardState {
	out := make([]ShardState, len(w.srcs))
	for i, s := range w.srcs {
		out[i] = ShardState{Certs: s.certs, Conns: s.conns, Seqs: s.seqs}
	}
	return out
}

// reroster recounts the roster set after a source dropped certificates.
func (w *viewWorld) reroster() {
	clear(w.roster)
	for _, s := range w.srcs {
		for _, c := range s.certs {
			w.roster[c.Fingerprint] = true
		}
	}
}

// reverdict recomputes the verdict as the detector's step 3 would: every
// rostered certificate of a confirmed issuer is excluded. A changed
// verdict is a new value, as interception.Merge hands them out.
func (w *viewWorld) reverdict() {
	res := &interception.Result{ExcludedCerts: map[ids.Fingerprint]bool{}}
	for issuer := range w.confirmed {
		res.Issuers = append(res.Issuers, issuer)
	}
	sort.Strings(res.Issuers)
	for _, s := range w.srcs {
		for _, c := range s.certs {
			if w.confirmed[c.IssuerKey()] {
				res.ExcludedCerts[c.Fingerprint] = true
			}
		}
	}
	if w.verdict == nil || !reflect.DeepEqual(res, w.verdict) {
		w.verdict = res
	}
}

// unresolved is the set a late certificate has to come from, derived
// from the state alone: leaf fingerprints no roster lists, each with the
// number of retained connections the filter lets through that name it.
func (w *viewWorld) unresolved() map[ids.Fingerprint]int {
	set := map[ids.Fingerprint]int{}
	for _, s := range w.srcs {
		for i := range s.conns {
			sl, cl := s.conns[i].ServerLeaf(), s.conns[i].ClientLeaf()
			if w.verdict.ExcludedCerts[sl] {
				continue
			}
			if sl != "" && !w.roster[sl] {
				set[sl]++
			}
			if cl != "" && cl != sl && !w.roster[cl] {
				set[cl]++
			}
		}
	}
	return set
}

func (w *viewWorld) addCert(s *viewSource, c *certmodel.CertInfo) {
	s.certs = append(s.certs, c)
	s.version++
	w.roster[c.Fingerprint] = true
}

// appendConns appends the build's next n connections to s under fresh
// sequences, rostering each unrostered leaf first with probability p.
func (w *viewWorld) appendConns(s *viewSource, n int, p float64) {
	for ; n > 0; n-- {
		rec := mergeBuild.Raw.Conns[w.pool%len(mergeBuild.Raw.Conns)]
		w.pool++
		for _, fp := range [2]ids.Fingerprint{rec.ServerLeaf(), rec.ClientLeaf()} {
			if c := mergeBuild.Raw.Certs[fp]; c != nil && !w.roster[fp] && w.rng.Float64() < p {
				w.addCert(s, c)
			}
		}
		w.appendConn(s, rec)
	}
}

// appendConn appends rec to s under a fresh sequence.
func (w *viewWorld) appendConn(s *viewSource, rec ConnRecord) {
	w.nextSeq += 2
	s.conns = append(s.conns, rec)
	s.seqs = append(s.seqs, w.nextSeq)
	s.version++
	w.rawConns++
}

// smallIssuer reports whether confirming c's issuer leaves most of the
// build standing: one that signs most of it would empty the window.
func smallIssuer(c *certmodel.CertInfo) bool { return issuerCerts()[c.IssuerKey()] <= 40 }

// confirm adds c's issuer to the verdict's, when it is small and there
// is room for one more.
func (w *viewWorld) confirm(s *viewSource, c *certmodel.CertInfo) bool {
	if c == nil || len(w.confirmed) >= 6 || w.confirmed[c.IssuerKey()] || !smallIssuer(c) {
		return false
	}
	w.confirmed[c.IssuerKey()] = true
	s.version++
	return true
}

// retained calls fn with every retained connection the verdict lets
// through until fn returns true, and reports whether one did.
func (w *viewWorld) retained(fn func(rec *ConnRecord) bool) bool {
	for _, s := range w.srcs {
		for i := range s.conns {
			if rec := &s.conns[i]; !w.verdict.ExcludedCerts[rec.ServerLeaf()] && fn(rec) {
				return true
			}
		}
	}
	return false
}

// lateCert rosters one certificate some retained connection names and no
// roster lists.
func (w *viewWorld) lateCert(s *viewSource) string {
	for fp := range w.unresolved() {
		if c := mergeBuild.Raw.Certs[fp]; c != nil {
			w.addCert(s, c)
			return "late certificate"
		}
	}
	w.appendConns(s, 3, 0) // nothing to be late for yet: make some
	return "append connections without their certificates"
}

// sameLeafConn is a connection of the build presenting one certificate,
// of a small issuer, on both sides.
var sameLeafConn = sync.OnceValue(func() *ConnRecord {
	for i := range mergeBuild.Raw.Conns {
		rec := &mergeBuild.Raw.Conns[i]
		if sl := rec.ServerLeaf(); sl != "" && sl == rec.ClientLeaf() && rec.Established && smallIssuer(mergeBuild.Raw.Certs[sl]) {
			return rec
		}
	}
	return nil
})

// step mutates the world once and returns a description of what it did.
// The reason the view must replay for — if any — is not returned: run
// derives it from the state before and after.
func (w *viewWorld) step() string {
	s := w.srcs[w.rng.Intn(len(w.srcs))]
	if then := w.then; then != nil {
		w.then = nil
		return then(s)
	}
	switch k := w.rng.Intn(100); {
	case k < 34:
		w.appendConns(s, 1+w.rng.Intn(8), 0.75)
		return "append connections"
	case k < 43: // certificates nobody named yet, and a fanned-out duplicate
		for n := 1 + w.rng.Intn(3); n > 0; n-- {
			rec := &mergeBuild.Raw.Conns[w.rng.Intn(len(mergeBuild.Raw.Conns))]
			if c := mergeBuild.Raw.Certs[rec.ServerLeaf()]; c != nil && !w.roster[c.Fingerprint] {
				w.addCert(s, c)
			}
		}
		if other := w.srcs[w.rng.Intn(len(w.srcs))]; len(other.certs) > 0 {
			w.addCert(s, other.certs[w.rng.Intn(len(other.certs))])
		}
		return "append certificates"
	case k < 52: // a certificate after a connection that named it
		return w.lateCert(s)
	case k < 56: // an issuer confirmed retroactively
		if c := s.certs; len(c) > 0 && w.confirm(s, c[w.rng.Intn(len(c))]) {
			return "confirm an issuer"
		}
		fallthrough
	case k < 61: // a new leaf of a confirmed issuer
		for _, c := range mergeBuild.Raw.Certs {
			if w.confirmed[c.IssuerKey()] && !w.roster[c.Fingerprint] {
				w.addCert(s, c)
				return "new leaf of a confirmed issuer"
			}
		}
		s.version++
		return "empty bump"
	case k < 64: // the issuer of a certificate a merged connection resolved as its client leaf
		if w.retained(func(rec *ConnRecord) bool {
			cl := rec.ClientLeaf()
			return w.roster[cl] && cl != rec.ServerLeaf() && w.confirm(s, mergeBuild.Raw.Certs[cl])
		}) {
			return "confirm a client leaf's issuer"
		}
		w.appendConns(s, 4, 1)
		return "append connections with their certificates"
	case k < 67: // the issuer of a certificate a merged connection presents on both sides
		rec := sameLeafConn()
		if w.retained(func(r *ConnRecord) bool { return r.UID == rec.UID }) && w.roster[rec.ServerLeaf()] {
			if w.confirm(s, mergeBuild.Raw.Certs[rec.ServerLeaf()]) {
				return "confirm the issuer of both leaves of one connection"
			}
			return "nothing"
		}
		if !w.verdict.ExcludedCerts[rec.ServerLeaf()] {
			if !w.roster[rec.ServerLeaf()] {
				w.addCert(s, mergeBuild.Raw.Certs[rec.ServerLeaf()])
			}
			w.appendConn(s, *rec)
			return "append a connection with one leaf on both sides"
		}
		return "nothing"
	case k < 71: // a leaf merged connections still wait for as their server's, rostered already excluded
		var c *certmodel.CertInfo
		if w.retained(func(rec *ConnRecord) bool {
			c = mergeBuild.Raw.Certs[rec.ServerLeaf()]
			return c != nil && !w.roster[c.Fingerprint] && (w.confirmed[c.IssuerKey()] || w.confirm(s, c))
		}) {
			w.addCert(s, c)
			// The lists of the leaves still waited for now point at moved
			// positions: deliver one of them next.
			w.then = func(s *viewSource) string {
				if what := w.lateCert(s); what != "late certificate" {
					return what
				}
				return "late certificate behind an excluded leaf"
			}
			return "roster an excluded leaf connections wait for"
		}
		w.appendConns(s, 3, 0)
		return "append connections without their certificates"
	case k < 74: // an exclusion withdrawn: the verdict is no superset of the one merged under
		for issuer := range w.confirmed {
			delete(w.confirmed, issuer)
			s.version++
			return "withdraw an issuer"
		}
		return "nothing"
	case k < 80: // retention
		if len(s.conns) == 0 {
			return "nothing to evict"
		}
		cut := 1 + w.rng.Intn(len(s.conns))
		s.conns, s.seqs = slices.Clone(s.conns[cut:]), slices.Clone(s.seqs[cut:])
		s.lost++
		s.version++
		return "evict a prefix"
	case k < 85: // a source starting over: empty, or re-sent under new numbers
		had := len(s.certs) > 0 || len(s.conns) > 0
		old := s.conns
		s.certs, s.conns, s.seqs = nil, nil, nil
		w.reroster()
		if w.rng.Intn(2) == 0 {
			for i := range old {
				w.nextSeq += 2
				s.conns, s.seqs = append(s.conns, old[i]), append(s.seqs, w.nextSeq)
			}
		}
		if had {
			s.lost++
		}
		s.version++
		return "reset a source"
	case k < 92: // a connection that sorts below one already merged
		if n := len(s.seqs); n > 0 && s.seqs[n-1] < w.nextSeq {
			rec := mergeBuild.Raw.Conns[w.pool%len(mergeBuild.Raw.Conns)]
			w.pool++
			s.conns = append(s.conns, rec)
			s.seqs = append(s.seqs, s.seqs[n-1]+1)
			s.version++
			w.rawConns++
			return "out of order"
		}
		fallthrough
	default:
		if w.rng.Intn(2) == 0 {
			s.version++
			return "empty bump"
		}
		return "nothing"
	}
}

// TestMergedViewIncrementalMatchesReplay is the one equivalence the
// merged view rests on, explored: seeded random programs over one, two
// and three sources append connections and certificates, grow the
// verdict — by a server leaf, a client leaf, both leaves of one
// connection, a leaf still waited for — and shrink it, evict, reset and
// misorder, and after every step the view's analysis must deep-equal a
// fresh MergeShards over the same full state, the replay counters must
// show exactly the reason the step injected, and a step that only
// appended or grew the verdict must have been caught up — onto the same
// Builder, enriching exactly the new connections, re-enriching exactly
// the ones a late certificate had been named by and taking back exactly
// the ones whose server leaf the verdict came to exclude — not replayed.
func TestMergedViewIncrementalMatchesReplay(t *testing.T) {
	seeds, steps := 20, 400
	if race.Enabled || testing.Short() {
		seeds, steps = 6, 120
	}
	var mu sync.Mutex
	injected := map[ReplayReason]int{}
	late, retracted := 0, 0
	did := map[string]int{}
	defer func() {
		for _, why := range ReplayReasons {
			if injected[why] == 0 && !t.Failed() {
				t.Errorf("no program injected %q", why)
			}
		}
		if late == 0 && !t.Failed() {
			t.Error("no program caught up with a late certificate")
		}
		if retracted == 0 && !t.Failed() {
			t.Error("no program took a connection back for a grown verdict")
		}
		for _, what := range []string{
			"confirm an issuer", "new leaf of a confirmed issuer", "confirm a client leaf's issuer",
			"confirm the issuer of both leaves of one connection", "roster an excluded leaf connections wait for",
			"late certificate behind an excluded leaf", "withdraw an issuer",
		} {
			// The short run gets to each only a handful of times.
			if did[what] == 0 && steps == 400 && !t.Failed() {
				t.Errorf("no program got to %q", what)
			}
		}
		t.Logf("across %d programs of %d steps: replays injected %v, %d connections re-enriched for a late certificate, %d taken back for a grown verdict; steps %v",
			seeds, steps, injected, late, retracted, did)
	}()
	// The group returns once its parallel programs have.
	t.Run("programs", func(t *testing.T) {
		for seed := 0; seed < seeds; seed++ {
			n := 1 + seed%3
			t.Run(fmt.Sprintf("seed=%d/sources=%d", seed, n), func(t *testing.T) {
				t.Parallel()
				w := newViewWorld(t, int64(seed), n)
				want := w.run(t, steps)
				mu.Lock()
				defer mu.Unlock()
				for why, n := range want {
					injected[why] += n
				}
				late += w.late
				retracted += w.retracted
				for what, n := range w.did {
					did[what] += n
				}
			})
		}
	})
}

// run drives the program for steps steps, holding the view against the
// oracle after each, and returns the replays it injected by reason.
func (w *viewWorld) run(t *testing.T, steps int) map[ReplayReason]int {
	want := map[ReplayReason]int{}
	wantMerges := 0
	// high is the highest sequence in the view's Builder: of what
	// was retained at its last replay and appended since.
	var high uint64
	for step := 0; step < steps; step++ {
		before := w.view.Stats()
		builder := w.view.b
		versBefore := w.view.Versions()
		lostBefore := 0
		for _, s := range w.srcs {
			lostBefore += int(s.lost)
		}
		verdictBefore := w.verdict.ExcludedCerts
		rosteredBefore := maps.Clone(w.roster)
		var tails []int
		for _, s := range w.srcs {
			tails = append(tails, len(s.seqs))
		}

		what := w.step()
		w.reverdict()
		w.did[what]++

		// The reason this step must replay for, from the state alone.
		var why ReplayReason
		lost := 0
		for _, s := range w.srcs {
			lost += int(s.lost)
		}
		withdrawn := false
		for fp := range verdictBefore {
			withdrawn = withdrawn || !w.verdict.ExcludedCerts[fp]
		}
		// Of the connections merged before the step, a catch-up takes back
		// exactly those whose server leaf the step excluded, and re-enriches
		// exactly those that stay and name a certificate the step rostered
		// and did not exclude; of those the step appended, it enriches the
		// ones the verdict lets through.
		late, retracted, misordered, fresh := 0, 0, false, 0
		arrived := func(fp ids.Fingerprint) bool {
			return fp != "" && w.roster[fp] && !rosteredBefore[fp] && !w.verdict.ExcludedCerts[fp]
		}
		if lost == lostBefore { // otherwise the tails mean nothing
			for i, s := range w.srcs {
				for j := range s.seqs {
					sl, cl := s.conns[j].ServerLeaf(), s.conns[j].ClientLeaf()
					excluded := w.verdict.ExcludedCerts[sl]
					switch {
					case j >= tails[i]:
						if s.seqs[j] <= high && builder != nil {
							misordered = true
						}
						if !excluded {
							fresh++
						}
					case verdictBefore[sl]:
					case excluded:
						retracted++
					default:
						if arrived(sl) {
							late++
						}
						if cl != sl && arrived(cl) {
							late++
						}
					}
				}
			}
		}
		moved := !slices.Equal(versBefore, w.view.Versions())
		switch {
		case !moved && builder != nil:
		case builder == nil:
			why = ReplayFirst
		case lost != lostBefore, withdrawn:
			why = ReplayLost
		case misordered:
			why = ReplayOrder
		}
		if moved || builder == nil {
			wantMerges++
		}
		if why != "" {
			want[why]++
			high = 0
		}
		for _, s := range w.srcs {
			if n := len(s.seqs); n > 0 {
				high = max(high, s.seqs[n-1])
			}
		}

		w.read(t, fmt.Sprintf("step %d (%s)", step, what))
		if !reflect.DeepEqual(w.replays, want) || w.merges != wantMerges {
			t.Fatalf("step %d (%s): %d merges with replays %v, want %d with %v",
				step, what, w.merges, w.replays, wantMerges, want)
		}
		after := w.view.Stats()
		if why == "" && builder != nil {
			if w.view.b != builder {
				t.Fatalf("step %d (%s): a catch-up replaced the Builder", step, what)
			}
			if d := after.Enriched - before.Enriched; d != uint64(fresh) {
				t.Fatalf("step %d (%s): caught up by enriching %d connections, %d are new", step, what, d, fresh)
			}
			if d := after.Late - before.Late; d != uint64(late) {
				t.Fatalf("step %d (%s): caught up by re-enriching %d connections, %d named a certificate that came late", step, what, d, late)
			}
			if d := after.Retracted - before.Retracted; d != uint64(retracted) {
				t.Fatalf("step %d (%s): caught up by taking back %d connections, the verdict came to exclude the server leaf of %d", step, what, d, retracted)
			}
		} else if after.Late != before.Late || after.Retracted != before.Retracted {
			t.Fatalf("step %d (%s): a replay re-enriched %d connections in place and took back %d", step, what,
				after.Late-before.Late, after.Retracted-before.Retracted)
		}
		if int(after.Late) != w.late || int(after.Retracted) != w.retracted {
			t.Fatalf("step %d (%s): Stats() = %+v, OnMerge reported %d late and %d retracted", step, what, after, w.late, w.retracted)
		}
		if after.Stale || int(after.Merges) != wantMerges {
			t.Fatalf("step %d (%s): Stats() = %+v after a read, want %d merges and not stale", step, what, after, wantMerges)
		}
	}
	return want
}

// TestMergedViewCatchUpIsODelta gates the view's cost model on counts: a
// catch-up of k connections enriches k connections and allocates the same
// whether the window behind it holds 5k or 50k; a certificate that comes
// after the k connections naming it re-enriches those k, enriches nothing
// and allocates the same behind 5k and behind 20k; a verdict grown by a
// leaf no merged connection names enriches and takes back nothing and
// allocates the same behind 5k and behind 50k — it does not walk the
// window — and one grown by the server leaf of k merged connections takes
// back those k on the Builder it had.
func TestMergedViewCatchUpIsODelta(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts under the race detector pin its internals")
	}
	const k, rounds = 500, 5
	measure := func(window int) (enriched uint64, allocs uint64) {
		w := newViewWorld(t, 1, 2)
		w.pool = 0
		for i := 0; i < window; i += 100 {
			w.appendConns(w.srcs[(i/100)%2], 100, 1)
		}
		w.view.WithPipeline(func(*Pipeline) {})
		allocs = ^uint64(0)
		for r := 0; r < rounds; r++ {
			// The same k records at both window sizes, already seen once so
			// the certificate-usage state they touch is warm in both.
			w.pool = 0
			w.appendConns(w.srcs[0], k/2, 1)
			w.appendConns(w.srcs[1], k/2, 1)
			before := w.view.Stats().Enriched
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			w.view.WithPipeline(func(*Pipeline) {})
			runtime.ReadMemStats(&m1)
			enriched = w.view.Stats().Enriched - before
			// The enriched-view slice doubles now and then; the cheapest
			// round is the one that did not.
			allocs = min(allocs, m1.Mallocs-m0.Mallocs)
		}
		if got := w.replays; len(got) != 1 || got[ReplayFirst] != 1 {
			t.Fatalf("window %d: replays %v, want only the first read's", window, got)
		}
		return enriched, allocs
	}
	smallN, smallA := measure(5000)
	largeN, largeA := measure(50000)
	t.Logf("catch-up of %d: window 5k enriched %d with %d allocs, window 50k enriched %d with %d allocs",
		k, smallN, smallA, largeN, largeA)
	if smallN != k || largeN != k {
		t.Errorf("a catch-up of %d connections enriched %d / %d", k, smallN, largeN)
	}
	if smallA != largeA {
		t.Errorf("catch-up allocations depend on the window: %d at 5k, %d at 50k", smallA, largeA)
	}

	measureLate := func(window int) (st MergeStats, allocs uint64) {
		w := newViewWorld(t, 1, 2)
		w.pool = 0
		for i := 0; i < window; i += 100 {
			w.appendConns(w.srcs[(i/100)%2], 100, 1)
		}
		allocs = ^uint64(0)
		for r := 0; r < rounds; r++ {
			// k connections across both sources presenting one client
			// certificate nobody has rostered, read, then the certificate.
			late := mkTestCert(fmt.Sprintf("late%d", r), "Late CA", fmt.Sprintf("late%d.example.org", r))
			for i := 0; i < k; i++ {
				rec := mergeBuild.Raw.Conns[i]
				rec.ClientChain = []ids.Fingerprint{late.Fingerprint}
				w.appendConn(w.srcs[i%2], rec)
			}
			w.view.WithPipeline(func(*Pipeline) {})
			w.addCert(w.srcs[r%2], late)
			before := w.view.Stats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			w.view.WithPipeline(func(*Pipeline) {})
			runtime.ReadMemStats(&m1)
			st = w.view.Stats()
			st.Enriched, st.Late = st.Enriched-before.Enriched, st.Late-before.Late
			allocs = min(allocs, m1.Mallocs-m0.Mallocs)
		}
		if got := w.replays; len(got) != 1 || got[ReplayFirst] != 1 {
			t.Fatalf("window %d: replays %v, want only the first read's", window, got)
		}
		return st, allocs
	}
	smallSt, smallA := measureLate(5000)
	largeSt, largeA := measureLate(20000)
	t.Logf("late certificate named by %d: window 5k re-enriched %d (enriched %d) with %d allocs, window 20k re-enriched %d (enriched %d) with %d allocs",
		k, smallSt.Late, smallSt.Enriched, smallA, largeSt.Late, largeSt.Enriched, largeA)
	for _, st := range []MergeStats{smallSt, largeSt} {
		if st.Late != k || st.Enriched != 0 {
			t.Errorf("a certificate late for %d connections re-enriched %d and enriched %d", k, st.Late, st.Enriched)
		}
	}
	if smallA != largeA {
		t.Errorf("late-certificate allocations depend on the window: %d at 5k, %d at 20k", smallA, largeA)
	}

	measureVerdict := func(window int) (unnamed MergeStats, allocs uint64, named MergeStats) {
		w := newViewWorld(t, 1, 2)
		w.pool = 0
		for i := 0; i < window; i += 100 {
			w.appendConns(w.srcs[(i/100)%2], 100, 1)
		}
		w.view.WithPipeline(func(*Pipeline) {})
		builder := w.view.b
		w.confirmed["Intercepting Proxy"] = true
		grow := func() (st MergeStats, allocs uint64) {
			w.reverdict()
			before := w.view.Stats()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			w.view.WithPipeline(func(*Pipeline) {})
			runtime.ReadMemStats(&m1)
			st = w.view.Stats()
			st.Enriched, st.Retracted = st.Enriched-before.Enriched, st.Retracted-before.Retracted
			return st, m1.Mallocs - m0.Mallocs
		}
		allocs = ^uint64(0)
		for r := 0; r < rounds; r++ {
			// A forged leaf of the confirmed issuer, for a site nobody visited.
			w.addCert(w.srcs[r%2], mkTestCert(fmt.Sprintf("forged%d", r), "Intercepting Proxy", fmt.Sprintf("forged%d.example.org", r)))
			st, a := grow()
			unnamed, allocs = st, min(allocs, a)
		}
		// One the k connections merged last were served by.
		forged := mkTestCert("forged", "Intercepting Proxy", "forged.example.org")
		for i := 0; i < k; i++ {
			rec := mergeBuild.Raw.Conns[i]
			rec.ServerChain = []ids.Fingerprint{forged.Fingerprint}
			w.appendConn(w.srcs[i%2], rec)
		}
		w.view.WithPipeline(func(*Pipeline) {})
		w.addCert(w.srcs[0], forged)
		named, _ = grow()
		if got := w.replays; len(got) != 1 || got[ReplayFirst] != 1 || w.view.b != builder {
			t.Fatalf("window %d: replays %v (same Builder: %v), want only the first read's", window, got, w.view.b == builder)
		}
		return unnamed, allocs, named
	}
	smallSt, smallA, smallNamed := measureVerdict(5000)
	largeSt, largeA, largeNamed := measureVerdict(50000)
	t.Logf("verdict grown by a leaf nobody names: window 5k %d allocs, window 50k %d allocs; by the server leaf of %d: took back %d / %d",
		smallA, largeA, k, smallNamed.Retracted, largeNamed.Retracted)
	for _, st := range []MergeStats{smallSt, largeSt} {
		if st.Enriched != 0 || st.Retracted != 0 {
			t.Errorf("a verdict grown by a leaf nobody names enriched %d connections and took back %d", st.Enriched, st.Retracted)
		}
	}
	if smallA != largeA {
		t.Errorf("verdict-growth allocations depend on the window: %d at 5k, %d at 50k", smallA, largeA)
	}
	for _, st := range []MergeStats{smallNamed, largeNamed} {
		if st.Retracted != k || st.Enriched != 0 {
			t.Errorf("a verdict grown by the server leaf of %d connections took back %d and enriched %d", k, st.Retracted, st.Enriched)
		}
	}
}

// oracle is what a read of the world as it stands must equal: a fresh
// MergeShards over every source's whole state under the current verdict.
func (w *viewWorld) oracle() (*Builder, *Analysis) {
	pre := &PreprocessReport{
		InterceptionIssuers: w.verdict.Issuers,
		ExcludedCerts:       len(w.verdict.ExcludedCerts),
		ExcludedShare:       w.verdict.ExcludedShare(len(w.roster)),
		RawCerts:            len(w.roster),
		RawConns:            int(w.rawConns),
	}
	b := MergeShards(w.in, w.full(), func(fp ids.Fingerprint) bool { return w.verdict.ExcludedCerts[fp] })
	return b, b.Pipeline(pre).RunAll()
}

// read reads the view and holds it against the oracle: the same analysis,
// and a Builder carrying the same connection weights (the build's TLS 1.3
// connections are few, so the share in the analysis rarely tells) and
// waiting for the same certificates at the same positions.
func (w *viewWorld) read(t *testing.T, when string) {
	t.Helper()
	oracle, want := w.oracle()
	var got *Analysis
	var waiting map[ids.Fingerprint][]int32
	var weights [2]int64
	w.view.WithPipeline(func(p *Pipeline) {
		b := w.view.b
		got, waiting, weights = p.RunAll(), b.waiting, [2]int64{b.w.tls13W, b.w.totalW}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the view differs from a replay of the same state", when)
	}
	if want := [2]int64{oracle.w.tls13W, oracle.w.totalW}; weights != want {
		t.Fatalf("%s: the view's Builder weighs its connections %v, a replay's %v", when, weights, want)
	}
	if !reflect.DeepEqual(waiting, oracle.waiting) {
		t.Fatalf("%s: the view's Builder waits for %v, a replay's for %v", when, waiting, oracle.waiting)
	}
}

// decodedCopy copies conns the way a tiered window decodes its cold
// records: the strings the enricher keys its per-connection memos by are
// slices of one buffer private to the copy. freed is counted up once
// nothing refers to that buffer any more.
func decodedCopy(conns []ConnRecord, freed *atomic.Int32) []ConnRecord {
	out := slices.Clone(conns)
	var sb strings.Builder
	sb.Grow(64) // no tiny allocation: those share a block, and its finalizer
	for i := range out {
		sb.WriteString(out[i].SNI + out[i].OrigIP + out[i].RespIP)
	}
	buf := sb.String()
	runtime.SetFinalizer(unsafe.StringData(buf), func(*byte) { freed.Add(1) })
	cut := func(n int) string {
		s := buf[:n]
		buf = buf[n:]
		return s
	}
	for i := range out {
		r := &out[i]
		r.SNI, r.OrigIP, r.RespIP = cut(len(r.SNI)), cut(len(r.OrigIP)), cut(len(r.RespIP))
	}
	return out
}

// TestMergedViewCopiesReleasedAfterRead: sources whose captures are
// private copies (a tiered window) must not be pinned by the view. Every
// read, whatever happened to the sources since the last one — nothing
// included — is a first replay asked from zero cursors, equals a fresh
// MergeShards over the same state, and leaves no Builder behind — nor
// anything else that refers into the copies: what the view carries from
// one Builder to the next (the issuer memos) is keyed by certificate
// strings alone.
func TestMergedViewCopiesReleasedAfterRead(t *testing.T) {
	steps := 120
	if race.Enabled || testing.Short() {
		steps = 40
	}
	for n := 1; n <= 2; n++ {
		w := newViewWorld(t, int64(40+n), n)
		capture := w.view.Capture
		var decoded, freed atomic.Int32
		w.view.Capture = func(since []MergeCursor) MergeCapture {
			if !slices.Equal(since, make([]MergeCursor, n)) {
				t.Fatalf("capture asked from %+v, want zero cursors", since)
			}
			c := capture(since)
			for i := range c.Shards {
				c.Shards[i].Conns = decodedCopy(c.Shards[i].Conns, &freed)
				decoded.Add(1)
			}
			c.Copies = true
			return c
		}
		for step := 0; step < steps; step++ {
			what := "nothing"
			if step%4 != 3 { // every fourth read follows no change at all
				what = w.step()
				w.reverdict()
			}
			w.read(t, fmt.Sprintf("sources=%d step %d (%s)", n, step, what))
			if w.merges != step+1 || len(w.replays) != 1 || w.replays[ReplayFirst] != step+1 {
				t.Fatalf("sources=%d step %d (%s): %d merges with replays %v, want %d first replays",
					n, step, what, w.merges, w.replays, step+1)
			}
			if w.view.b != nil {
				t.Fatalf("sources=%d step %d (%s): the view kept its Builder, and the waiting lists in it, after the read", n, step, what)
			}
			want := MergeStats{Merges: uint64(step + 1), Replays: uint64(step + 1), Stale: true}
			if st := w.view.Stats(); st.Merges != want.Merges || st.Replays != want.Replays || st.Stale != want.Stale {
				t.Fatalf("sources=%d step %d (%s): Stats() = %+v, want %+v", n, step, what, st, want)
			}
			if step%20 == 19 { // a collection is not free
				for tries := 0; freed.Load() != decoded.Load() && tries < 100; tries++ {
					runtime.GC()
					time.Sleep(time.Millisecond)
				}
				if freed.Load() != decoded.Load() {
					t.Fatalf("sources=%d step %d: %d of the %d decoded copies captured so far are still referred to after their reads",
						n, step, decoded.Load()-freed.Load(), decoded.Load())
				}
			}
		}
		if w.view.memos.memo == nil {
			t.Errorf("sources=%d: the view kept no issuer memos for its next Builder", n)
		}
	}
}

// TestMergedViewStatsDoesNotWaitForRead: Stats is what a health check
// reads; a report scan parked inside fn must not hold it up.
func TestMergedViewStatsDoesNotWaitForRead(t *testing.T) {
	w := newViewWorld(t, 7, 2)
	w.appendConns(w.srcs[0], 50, 1)
	parked, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.view.WithPipeline(func(*Pipeline) { close(parked); <-release })
	}()
	<-parked
	got := make(chan MergeStats, 1)
	go func() { got <- w.view.Stats() }()
	select {
	case st := <-got:
		if st.Merges != 1 || st.Replays != 1 || st.Stale {
			t.Errorf("Stats() during the read = %+v, want the one first replay, not stale", st)
		}
	case <-time.After(5 * time.Second):
		t.Error("Stats waited behind a parked read")
	}
	close(release)
	<-done
}
