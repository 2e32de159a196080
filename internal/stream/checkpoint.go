package stream

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/store"
)

// A checkpoint is a directory: one MANIFEST and the CRC-framed segment
// files it names. The manifest names the window's segment chain, the
// caller's cursor and the router's state. Each WriteCheckpoint appends one
// segment to the chain, carrying only what changed since the previous
// commit — connections appended past the committed sequence mark, the
// latest eviction cutoff and the counters, the certificates the router
// admitted and the §3.2 evidence pairs its detector gained since, and the
// detector's parked observations whole — and then rewrites the MANIFEST
// through the atomicfile protocol. Restore replays the chain in order:
// apply the segment's eviction cutoff to the state accumulated so far,
// then append its records. A background compactor folds the chain back
// into one base, so the directory stays O(state) while each interval's
// write stays O(delta).
//
// Frames carry the record codec (store/record.go); DESIGN.md §8 has the
// table. A directory has one shape — a version-3 manifest naming one chain
// of frames 4–7 — which is what this release writes and what the previous
// release writes too: a restore reads it and the next commit continues it
// in place. Every other shape is refused by name, untouched, naming the
// build whose first commit rewrites it (retired).
//
// The manifest has one owner, the Engine, and its rename is the only
// commit point: the window writes segment files and nothing else, so no
// crash can leave a chain that disagrees with the cursor.
//
// Crash matrix (DESIGN.md §8 has the narrative): nothing is deleted
// before a commit, and after one the owner sweeps every file the new
// manifest does not name. A crash before the rename leaves the previous
// commit intact beside unreferenced files; a crash after it is the new
// commit (segments were fsynced before the manifest named them). That
// covers a delta, a compaction, and the first write into a directory
// some other history committed.

// ckptManifestVersion guards the manifest format: the number says which
// frames the segments may hold, so a build that cannot read this one's
// refuses the directory instead of misreading it.
const ckptManifestVersion = 3

// ckptManifestName is the commit point of a checkpoint directory.
const ckptManifestName = "MANIFEST"

// ckptSwapSuffix names the directory built beside a regular file that
// holds the checkpoint path, until it takes the file's place.
const ckptSwapSuffix = ".swap"

// ckptCompactEvery is the segment-chain length that triggers the
// background compactor after a delta commit.
const ckptCompactEvery = 8

// ckptConnChunk / ckptCertChunk / ckptPairChunk bound one frame's record
// count, so a restore decodes bounded batches rather than one giant frame.
const (
	ckptConnChunk = 4096
	ckptCertChunk = 1024
	ckptPairChunk = 8192
)

// segFlushBytes is how many encoded bytes a segment writer gathers before
// it hands them to the file: a delta is one write, a base one per few
// frames.
const segFlushBytes = 1 << 20

// Segment frame types. 1–3 were manifest version 2's gob frames, refused
// by name wherever a chain holds one.
const (
	segFrameState    byte = 4 // segState: counters, eviction cutoff, parked observations
	segFrameCerts    byte = 5 // count, then (sequence, certificate) records
	segFrameConns    byte = 6 // count, then (sequence, connection) records
	segFrameEvidence byte = 7 // §3.2 pairs new since the previous segment
)

// segState is a segment's snapshot of everything that is not a record
// stream: the window's counters, the eviction cutoff to replay before this
// segment's records, and the observations the router's detector had parked
// at the commit — the part of its state that shrinks, so every segment
// carries it whole and the last one wins on restore. (The part that only
// grows, the evidence, is a record stream: segFrameEvidence.)
type segState struct {
	ConnsIngested uint64
	Evicted       uint64
	Watermark     time.Time
	EvictCutoff   time.Time
	// Parked is never nil in a segment this release writes; the flag in
	// front of it on disk dates from chains that carried no detector.
	Parked map[ids.Fingerprint][]interception.PendingRef
}

// appendSegState encodes st as a segFrameState payload; parked leaves go
// out sorted, so the same state always writes the same bytes.
func appendSegState(b []byte, st *segState) []byte {
	b = binary.AppendUvarint(b, st.ConnsIngested)
	b = binary.AppendUvarint(b, st.Evicted)
	b = store.AppendTime(b, st.Watermark)
	b = store.AppendTime(b, st.EvictCutoff)
	b = store.AppendBool(b, st.Parked != nil)
	if st.Parked == nil {
		return b
	}
	leaves := make([]ids.Fingerprint, 0, len(st.Parked))
	for leaf := range st.Parked {
		leaves = append(leaves, leaf)
	}
	slices.Sort(leaves)
	b = binary.AppendUvarint(b, uint64(len(leaves)))
	for _, leaf := range leaves {
		refs := st.Parked[leaf]
		b = store.AppendFingerprint(b, leaf)
		b = binary.AppendUvarint(b, uint64(len(refs)))
		for _, ref := range refs {
			b = store.AppendString(b, ref.SNI)
			b = store.AppendFingerprints(b, ref.Rest)
		}
	}
	return b
}

// decodeSegState reads a segFrameState payload.
func decodeSegState(body []byte) (*segState, error) {
	d := store.NewDecoder(body)
	st := &segState{
		ConnsIngested: d.Uvarint(),
		Evicted:       d.Uvarint(),
		Watermark:     d.Time(),
		EvictCutoff:   d.Time(),
	}
	if d.Bool() {
		st.Parked = map[ids.Fingerprint][]interception.PendingRef{}
		for n := d.Count(2); n > 0; n-- {
			leaf := d.Fingerprint()
			refs := make([]interception.PendingRef, d.Count(2))
			for i := range refs {
				refs[i] = interception.PendingRef{SNI: d.String(), Rest: d.Fingerprints()}
			}
			st.Parked[leaf] = append(st.Parked[leaf], refs...)
		}
	}
	return st, d.End()
}

// ckptSeg names one committed segment and its exact size — a referenced
// segment shorter than recorded is truncation, reported as corruption.
type ckptSeg struct {
	Name  string
	Bytes int64
}

// routerState is what the router checkpoints beside the window's chain:
// the sequence counter, the admitted-certificate count and, when the
// engine exports, the numbering epoch, so a cursor taken before the
// restart can be continued after it (without it every cursor is refused
// as stale).
type routerState struct {
	NextSeq     uint64
	CertsRouted uint64
	Epoch       uint64 `json:"ExportEpoch,omitempty"`
}

// ckptManifest is a checkpoint directory's commit record. Gen counts the
// directory's commits; NextSeg numbers its segment files. Chains holds the
// one chain: the field keeps the shape the previous release reads.
type ckptManifest struct {
	Version int
	Gen     uint64
	NextSeg int
	Chains  [][]ckptSeg
	Cursor  map[string]int64
	Router  *routerState
}

// segName names the n-th segment file a directory's commits create.
func segName(n int) string { return fmt.Sprintf("seg-%d.ckpt", n) }

// readCkptManifest loads and validates a directory's MANIFEST: version 3,
// router state, one chain of segments named seg-<n>.ckpt once each with n
// below NextSeg — the name the next commit creates must not be one this
// commit needs. The shapes this release does not read are refused by name:
// version 1, version 2 without router state, and router state that still
// carries the certificates' sequences (retiredRelease rewrites those);
// version 2, and more than one chain (previousRelease rewrites those).
func readCkptManifest(dir string) (*ckptManifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ckptManifestName))
	if err != nil {
		return nil, err
	}
	var man ckptManifest
	var old struct {
		Router struct{ CertSeqs json.RawMessage }
	}
	if err := json.Unmarshal(buf, &man); err == nil {
		err = json.Unmarshal(buf, &old)
	}
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint manifest decode: %w", err)
	}
	switch {
	case man.Version == 1:
		return nil, retired(dir, "a version-1 MANIFEST", retiredRelease)
	case man.Version != 2 && man.Version != ckptManifestVersion:
		return nil, fmt.Errorf("stream: checkpoint manifest version %d, want %d", man.Version, ckptManifestVersion)
	case man.Router == nil:
		return nil, retired(dir, fmt.Sprintf("a version-%d MANIFEST without router state", man.Version), retiredRelease)
	case old.Router.CertSeqs != nil:
		return nil, retired(dir, "a MANIFEST whose router state lists certificate sequences", retiredRelease)
	case man.Version == 2:
		return nil, retired(dir, "a version-2 MANIFEST", previousRelease)
	case len(man.Chains) > 1:
		return nil, retired(dir, fmt.Sprintf("a MANIFEST naming %d chains", len(man.Chains)), previousRelease)
	case len(man.Chains) == 0 || len(man.Chains[0]) == 0:
		return nil, fmt.Errorf("%w: checkpoint manifest names no segment", store.ErrCorrupt)
	}
	named := map[string]bool{}
	for _, sg := range man.Chains[0] {
		var n int
		if _, err := fmt.Sscanf(sg.Name, "seg-%d.ckpt", &n); err != nil || sg.Name != segName(n) || n < 1 || n >= man.NextSeg || named[sg.Name] {
			return nil, fmt.Errorf("%w: checkpoint manifest names segment %q (next segment %d) out of place", store.ErrCorrupt, sg.Name, man.NextSeg)
		}
		named[sg.Name] = true
	}
	return &man, nil
}

// The builds a refusal names: retiredRelease reads every shape older than
// the previous release's, previousRelease every shape it read itself; the
// first commit of each rewrites what it read as that release's own shape,
// which is this one's.
const (
	retiredRelease  = "7a5e8ef"
	previousRelease = "d2d26b6"
)

// retired refuses a checkpoint at path of a shape this release does not
// read, naming the shape and the build that upgrades it. It is never
// os.ErrNotExist: a caller must not take the path for "no checkpoint yet"
// and commit over the files it holds.
func retired(path, shape, release string) error {
	return fmt.Errorf("stream: checkpoint %s: %s is a shape this release does not read; restore it once with the build at commit %s, whose first checkpoint rewrites it",
		path, shape, release)
}

// checkpointer owns an Engine's checkpoint directory: the window's chain
// and the one MANIFEST, of which it is the only writer. Lock order: mu
// before the router lock and the window's state lock — writers hold mu
// throughout and take the others briefly for their snapshots.
type checkpointer struct {
	win *window
	// router snapshots, per commit, the router's state and what it adds to
	// the segment: its roster log and its detector's evidence log from the
	// given positions on, and the detector's parked observations.
	router func(certs, pairs int) (*routerState, routerDelta)
	m      *engineMetrics

	mu sync.Mutex
	// dir is the directory being written and man this engine's last
	// commit there — after a restore, the commit it read. After first
	// contact man has no chain yet — the next write is a base rather than
	// a delta — only the generation and segment numbering to continue.
	dir string
	man *ckptManifest
	// certs and pairs count the roster-log and evidence-log entries
	// committed segments cover.
	certs, pairs int
	// buf is the buffer every segment of every commit and fold is encoded
	// in (segWriter).
	buf []byte

	compactWG sync.WaitGroup
}

// WriteCheckpoint commits the window's state, the router's and the
// caller's cursor to the checkpoint directory at path: one segment is
// appended to the chain — a base on the first write there, a delta since
// the previous commit on every later one — and the manifest naming it is
// renamed into place. A regular file at path is replaced by the directory
// once it has committed. The caller must ensure the cursor is consistent
// with the applied state — i.e. Drain first, then read tail offsets, then
// checkpoint.
func (s *Engine) WriteCheckpoint(path string, cursor map[string]int64) error {
	return s.ckpt.write(path, cursor)
}

// Compact folds the committed segment chain into one base segment, so
// the directory returns to O(state) while the per-interval delta cost
// stays O(delta). Runs in the background after every ckptCompactEvery-th
// commit (Close waits for one in flight); safe to call directly. A crash
// at any point leaves the previous manifest and its segments untouched.
func (s *Engine) Compact() error {
	return s.ckpt.compact()
}

// routerDelta is what a commit adds to the segment on the router's behalf:
// the certificates admitted and the evidence pairs gained since the
// previous commit, and the detector's parked observations, whole.
type routerDelta struct {
	certs    []*certmodel.CertInfo
	certSeqs []uint64
	pairs    []interception.Pair
	parked   map[ids.Fingerprint][]interception.PendingRef
}

// routerState snapshots what the router checkpoints: its counters for the
// manifest, and for the segment the roster log and the detector's evidence log
// from the given positions on — both append-only, so the suffixes are the
// delta, readable after the lock is released, and the same state always
// writes the same bytes — and a copy of the small set the detector has
// parked.
func (s *Engine) routerState(certs, pairs int) (*routerState, routerDelta) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := &routerState{NextSeq: s.nextSeq, CertsRouted: s.certsRouted.Load()}
	if s.cfg.TrackExport {
		r.Epoch = s.epoch
	}
	return r, routerDelta{
		certs:    s.roster[certs:],
		certSeqs: s.certSeqs[certs:],
		pairs:    s.icpt.Pairs(pairs),
		parked:   s.icpt.Parked(),
	}
}

// finishSwap completes a file → directory replacement that stopped
// between removing the file and renaming the finished directory into its
// place. The directory's MANIFEST shows it was finished; anything less
// beside a path that still exists is an abandoned attempt.
func finishSwap(path string) error {
	staging := path + ckptSwapSuffix
	if _, err := os.Lstat(path); !errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if _, err := os.Stat(filepath.Join(staging, ckptManifestName)); err != nil {
		return nil
	}
	return atomicfile.Rename(staging, path)
}

// firstContact points the checkpointer at path, which this process has
// not written or restored. Whatever is committed there stays readable
// until the replacement commits: a directory's manifest is read for the
// numbering to continue, and a regular file is left alone while the new
// directory is built beside it, for write to swap in once committed.
func (c *checkpointer) firstContact(path string) error {
	if err := finishSwap(path); err != nil {
		return err
	}
	staging := path + ckptSwapSuffix
	if err := os.RemoveAll(staging); err != nil {
		return err
	}
	dir := path
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		dir = staging
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	man := &ckptManifest{NextSeg: 1}
	switch found, err := readCkptManifest(dir); {
	case err == nil:
		man.Gen, man.NextSeg = found.Gen, found.NextSeg
	case !errors.Is(err, os.ErrNotExist):
		// Not ours to overwrite: a commit file that cannot be read says
		// nothing about which files it still needs.
		return err
	}
	c.dir, c.man = dir, man
	return nil
}

// write appends one segment to the chain and commits it.
func (c *checkpointer) write(path string, cursor map[string]int64) error {
	defer c.m.checkpointDur.Since(time.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.man == nil || c.dir != path {
		if err := c.firstContact(path); err != nil {
			return fmt.Errorf("stream: checkpoint: %w", err)
		}
	}
	full := c.man.Chains == nil
	var chain []ckptSeg
	certs, pairs := 0, 0
	if !full {
		chain, certs, pairs = slices.Clone(c.man.Chains[0]), c.certs, c.pairs
	}
	router, delta := c.router(certs, pairs)
	name := segName(c.man.NextSeg)
	n, done, err := c.win.writeDelta(filepath.Join(c.dir, name), &c.buf, full, delta)
	if err != nil {
		return fmt.Errorf("stream: checkpoint segment: %w", err)
	}
	man := &ckptManifest{
		Version: ckptManifestVersion,
		Gen:     c.man.Gen + 1,
		NextSeg: c.man.NextSeg + 1,
		Chains:  [][]ckptSeg{append(chain, ckptSeg{Name: name, Bytes: n})},
		Cursor:  cursor,
		Router:  router,
	}
	if err := c.commit(man); err != nil {
		return err
	}
	done(len(man.Chains[0]))
	c.certs, c.pairs = certs+len(delta.certs), pairs+len(delta.pairs)
	if c.dir != path {
		// The directory beside the file is complete and committed: it
		// takes the file's place.
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("stream: checkpoint: %w", err)
		}
		if err := finishSwap(path); err != nil {
			return fmt.Errorf("stream: checkpoint: %w", err)
		}
		c.dir = path
	}
	if len(man.Chains[0]) >= ckptCompactEvery {
		c.compactWG.Add(1)
		go func() {
			defer c.compactWG.Done()
			c.compact()
		}()
	}
	return nil
}

// commit renames man into place and then sweeps every checkpoint file it
// does not name. A failure keeps the previous commit as the one to
// continue from, but burns the generation and the segment names the
// attempt used: the error may have come after the rename (the directory
// fsync), and a manifest that did land must keep pointing at intact
// files until the next commit supersedes it.
func (c *checkpointer) commit(man *ckptManifest) error {
	buf, err := json.MarshalIndent(man, "", "  ")
	if err == nil {
		err = atomicfile.WriteFile(filepath.Join(c.dir, ckptManifestName), append(buf, '\n'))
	}
	if err != nil {
		c.man.Gen, c.man.NextSeg = man.Gen, man.NextSeg
		return fmt.Errorf("stream: checkpoint manifest: %w", err)
	}
	c.man = man
	keep := map[string]bool{}
	for _, sg := range man.Chains[0] {
		keep[sg.Name] = true
	}
	ents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil // best effort: the next commit sweeps again
	}
	for _, ent := range ents {
		name := ent.Name()
		if !keep[name] && (strings.HasSuffix(name, ".ckpt") || strings.HasSuffix(name, ".tmp")) {
			os.Remove(filepath.Join(c.dir, name))
		}
	}
	return nil
}

// compact folds the chain into one base segment and commits it through
// the manifest, cursor and router state unchanged.
func (c *checkpointer) compact() error {
	defer c.m.compactDur.Since(time.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.man == nil || c.man.Chains == nil || len(c.man.Chains[0]) <= 1 {
		return nil
	}
	man := *c.man
	man.Gen++
	name := segName(man.NextSeg)
	n, err := foldChain(c.dir, c.man.Chains[0], name, &c.buf)
	if err != nil {
		return fmt.Errorf("stream: compact: %w", err)
	}
	man.NextSeg++
	man.Chains = [][]ckptSeg{{{Name: name, Bytes: n}}}
	if err := c.commit(&man); err != nil {
		return err
	}
	c.m.compactions.Inc()
	c.m.checkpointSegs.Set(1)
	return nil
}

// segWriter streams one segment's frames to its file through the
// checkpointer's buffer: a frame is encoded in place behind the ones
// still waiting, and the file sees them segFlushBytes at a time.
type segWriter struct {
	f     *os.File
	buf   []byte
	start int // where the open frame begins in buf
}

// begin opens a frame; the caller appends its payload to w.buf.
func (w *segWriter) begin(typ byte) {
	w.start = len(w.buf)
	w.buf = store.BeginFrame(w.buf, typ)
}

// end closes the open frame.
func (w *segWriter) end() (err error) {
	if w.buf, err = store.EndFrame(w.buf, w.start); err != nil {
		return err
	}
	if len(w.buf) >= segFlushBytes {
		return w.flush()
	}
	return nil
}

func (w *segWriter) flush() error {
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// copyFrame writes a frame around a payload already encoded.
func (w *segWriter) copyFrame(typ byte, payload []byte) error {
	w.begin(typ)
	w.buf = append(w.buf, payload...)
	return w.end()
}

func (w *segWriter) state(st *segState) error {
	w.begin(segFrameState)
	w.buf = appendSegState(w.buf, st)
	return w.end()
}

func (w *segWriter) certs(certs []*certmodel.CertInfo, seqs []uint64) (err error) {
	for i := 0; err == nil && i < len(certs); i += ckptCertChunk {
		end := min(i+ckptCertChunk, len(certs))
		w.begin(segFrameCerts)
		w.buf = store.AppendCerts(w.buf, certs[i:end], seqs[i:end])
		err = w.end()
	}
	return err
}

func (w *segWriter) pairs(pairs []interception.Pair) (err error) {
	for i := 0; err == nil && i < len(pairs); i += ckptPairChunk {
		w.begin(segFrameEvidence)
		w.buf = store.AppendPairs(w.buf, pairs[i:min(i+ckptPairChunk, len(pairs))])
		err = w.end()
	}
	return err
}

func (w *segWriter) conns(conns []core.ConnRecord, seqs []uint64) (err error) {
	for i := 0; err == nil && i < len(conns); i += ckptConnChunk {
		end := min(i+ckptConnChunk, len(conns))
		w.begin(segFrameConns)
		w.buf = store.AppendConns(w.buf, conns[i:end], seqs[i:end])
		err = w.end()
	}
	return err
}

// createSegment writes one segment file: emit streams its frames, encoded
// in *buf (kept, grown, for the next segment), and the file is fsynced
// before return, so the manifest that will name it never names un-durable
// data. Returns the segment's size.
func createSegment(path string, buf *[]byte, emit func(w *segWriter) error) (size int64, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := &segWriter{f: f, buf: (*buf)[:0]}
	err = emit(w)
	if err == nil {
		err = w.flush()
	}
	*buf = w.buf[:0]
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		size, err = f.Seek(0, io.SeekCurrent)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return size, nil
}

// writeDelta snapshots what changed since the window's last committed
// segment — everything, for a base — and writes it to path as one
// segment: the state frame first, then what the owner hands it of the
// router's, then the connections. Returns the segment's size. The window's
// marks stand until the owner calls done, once its manifest names the
// segment; a commit that fails is simply covered again by the next delta.
func (w *window) writeDelta(path string, buf *[]byte, full bool, router routerDelta) (int64, func(chainLen int), error) {
	// Snapshot under the state lock: the window's suffix past the mark —
	// live headers on the memory store (appends land beyond the captured
	// length, eviction swaps in fresh arrays), copies sized up front on a
	// tiered one — so the lock is held for a binary search and encoding
	// proceeds after unlock without stalling ingest.
	w.mu.Lock()
	// A restore replays each segment's cutoff over everything the earlier
	// segments hold, so the window sweeps first: it then holds nothing
	// below the cutoff a connection that arrived after the last sweep
	// would be evicted by on replay, and what a restore rebuilds — and
	// counts as evicted — is what the window held.
	if w.cfg.Retention > 0 {
		w.evictLocked()
	}
	mark := w.ckptMark
	if full {
		mark = 0
	}
	conns, seqs := w.st.Snapshot(mark)
	newMark := w.nextSeq
	st := &segState{
		ConnsIngested: w.connsIngested,
		Evicted:       w.evicted,
		Watermark:     w.watermark,
		EvictCutoff:   w.ckptCutoff,
		Parked:        router.parked,
	}
	w.mu.Unlock()

	n, err := createSegment(path, buf, func(sw *segWriter) error {
		err := sw.state(st)
		if err == nil {
			err = sw.certs(router.certs, router.certSeqs)
		}
		if err == nil {
			err = sw.pairs(router.pairs)
		}
		if err == nil {
			err = sw.conns(conns, seqs)
		}
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	return n, func(chainLen int) {
		w.m.checkpoints.Inc()
		w.m.checkpointBytes.Set(float64(n))
		w.m.checkpointSegs.Set(float64(chainLen))
		w.mu.Lock()
		w.ckptMark = newMark
		w.lastCkpt = time.Now()
		w.mu.Unlock()
	}, nil
}

// foldChain streams a chain of this release's frames into the one segment
// name, returning its size: roster and evidence frames copy verbatim
// (fingerprints are unique across a chain's segments by construction,
// pairs across its evidence frames), and connection frames are filtered by
// the eviction cutoffs of later segments — so the transient memory is one
// frame, not the full state.
func foldChain(dir string, chain []ckptSeg, name string, buf *[]byte) (int64, error) {
	// Pass 1: each segment's state frame, for the cutoff schedule and
	// the final (authoritative) state.
	states := make([]*segState, len(chain))
	for i, sg := range chain {
		st, err := readSegmentState(filepath.Join(dir, sg.Name), sg.Bytes)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", sg.Name, err)
		}
		states[i] = st
	}
	// futureCut[i] is the strongest eviction replayed after segment i's
	// records were appended — the filter deciding which of its records
	// are still alive.
	futureCut := make([]time.Time, len(states))
	var cut time.Time
	for i := len(states) - 1; i >= 0; i-- {
		futureCut[i] = cut
		if states[i].EvictCutoff.After(cut) {
			cut = states[i].EvictCutoff
		}
	}

	return createSegment(filepath.Join(dir, name), buf, func(w *segWriter) error {
		if err := w.state(states[len(states)-1]); err != nil {
			return err
		}
		for i, sg := range chain {
			if err := copySegmentRecords(filepath.Join(dir, sg.Name), sg.Bytes, w, futureCut[i]); err != nil {
				return fmt.Errorf("%s: %w", sg.Name, err)
			}
		}
		return nil
	})
}

// eachFrame hands fn every frame of a committed segment in order; fn
// returns io.EOF to stop early. body is read into one buffer the frames
// share: fn copies what it keeps (the record decoders do). The file must
// be exactly the size its manifest recorded — shorter is truncation, even
// where it parses.
func eachFrame(path string, wantBytes int64, fn func(typ byte, body []byte) error) error {
	f, err := openNamed(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return err
	} else if fi.Size() != wantBytes {
		return fmt.Errorf("%w: segment is %d bytes, manifest committed %d", store.ErrCorrupt, fi.Size(), wantBytes)
	}
	var buf []byte
	for {
		typ, body, err := store.ReadFrame(f, buf)
		if err == nil {
			buf = body[:0]
			err = fn(typ, body)
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// segRecords is one decoded record frame: a roster batch (certs), a
// connection batch (conns) or an evidence batch (pairs), the first two
// under their sequences.
type segRecords struct {
	certs []*certmodel.CertInfo
	conns []core.ConnRecord
	seqs  []uint64
	pairs []interception.Pair
}

// decodeRecords decodes one record frame.
func decodeRecords(typ byte, body []byte) (rec segRecords, err error) {
	d := store.NewDecoder(body)
	switch typ {
	case segFrameCerts:
		rec.certs, rec.seqs = d.Certs()
	case segFrameConns:
		rec.conns, rec.seqs = d.Conns()
	case segFrameEvidence:
		rec.pairs = d.Pairs()
	default:
		return rec, fmt.Errorf("%w: unknown frame type %d", store.ErrCorrupt, typ)
	}
	return rec, d.End()
}

// readSegmentState returns the state frame (the first frame) of a segment.
func readSegmentState(path string, wantBytes int64) (st *segState, err error) {
	err = eachFrame(path, wantBytes, func(typ byte, body []byte) error {
		if typ != segFrameState {
			return fmt.Errorf("%w: first frame type %d, want state", store.ErrCorrupt, typ)
		}
		if st, err = decodeSegState(body); err != nil {
			return err
		}
		return io.EOF
	})
	if err == nil && st == nil {
		err = fmt.Errorf("%w: segment has no state frame", store.ErrCorrupt)
	}
	return st, err
}

// copySegmentRecords streams the record frames of a segment of this
// release's frames into w: roster and evidence frames verbatim, connection
// frames filtered by cut (zero = verbatim).
func copySegmentRecords(path string, wantBytes int64, w *segWriter, cut time.Time) error {
	return eachFrame(path, wantBytes, func(typ byte, body []byte) error {
		switch {
		case typ == segFrameState:
			return nil // the folded state frame was already written
		case typ == segFrameConns && !cut.IsZero():
			d := store.NewDecoder(body)
			conns, seqs := d.Conns()
			if err := d.End(); err != nil {
				return err
			}
			keep := 0
			for i := range conns {
				if !conns[i].TS.Before(cut) {
					conns[keep], seqs[keep] = conns[i], seqs[i]
					keep++
				}
			}
			return w.conns(conns[:keep], seqs[:keep])
		case typ == segFrameCerts, typ == segFrameEvidence, typ == segFrameConns:
			return w.copyFrame(typ, body)
		}
		return fmt.Errorf("%w: frame type %d in a chain of this release's frames", store.ErrCorrupt, typ)
	})
}

// committed is what a checkpoint directory holds, as a restore reads it:
// man names its one chain, last is the chain's final state frame, pairs
// the evidence its segments logged and certs its roster, in the order
// written, each under the sequence beside it in certSeqs; roster holds the
// roster's fingerprints, so none is read twice.
type committed struct {
	dir      string
	man      *ckptManifest
	last     *segState
	pairs    []interception.Pair
	certs    []*certmodel.CertInfo
	certSeqs []uint64
	roster   map[ids.Fingerprint]bool
}

// openCheckpoint reads path's commit record. Only an absent path, or a
// directory with neither commit file, is os.ErrNotExist — "no checkpoint
// yet". A shape this release does not read — a regular file, a directory
// committed by manifest.json, and the manifests readCkptManifest refuses
// (a chain holding gob frames is found as it is replayed) — is refused by
// name and left as it is.
func openCheckpoint(path string) (*committed, error) {
	if err := finishSwap(path); err != nil {
		return nil, fmt.Errorf("stream: restore %s: %v", path, err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return nil, retired(path, "a single-file checkpoint", retiredRelease)
	}
	man, err := readCkptManifest(path)
	if errors.Is(err, os.ErrNotExist) {
		if _, perr := os.Stat(filepath.Join(path, "manifest.json")); perr == nil {
			return nil, retired(path, "a directory committed by manifest.json", retiredRelease)
		}
	}
	if err != nil {
		return nil, err
	}
	return &committed{dir: path, man: man, roster: map[ids.Fingerprint]bool{}}, nil
}

// openNamed opens a file a commit record names. The record is
// committed, so an absent file is damage — store.ErrCorrupt, never the
// os.ErrNotExist a caller takes for "no checkpoint yet".
func openNamed(path string) (*os.File, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		err = fmt.Errorf("%w: %v", store.ErrCorrupt, err)
	}
	return f, err
}

// Restore starts an engine from the checkpoint at path and returns the
// cursor stored with it. The restored engine's first read replays the
// restored window; resuming ingestion from the cursor and draining yields
// reports byte-identical to an uninterrupted run. The next write continues
// the chain it read in place, a delta. The error is os.ErrNotExist only
// when path holds no checkpoint; a shape this release does not read is
// refused by name, and the path is left as it is.
func Restore(cfg Config, path string) (*Engine, map[string]int64, error) {
	ck, err := openCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	s, err := start(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.win.restore(ck); err != nil {
		s.Close()
		return nil, nil, fmt.Errorf("stream: restore %s: %w", path, err)
	}
	s.restoreRouter(ck)
	c := s.ckpt
	c.dir, c.man, c.certs, c.pairs = ck.dir, ck.man, len(ck.certs), len(s.icpt.Pairs(0))
	return s, ck.man.Cursor, nil
}

// restoreRouter rebuilds the router from its checkpointed counters and
// what the chain held: the detector from the evidence its segments logged
// and the observations its last state frame parked, then the roster in
// sequence order — admitting a certificate drains any observation the
// checkpoint caught parked on it.
func (s *Engine) restoreRouter(ck *committed) {
	r := ck.man.Router
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextSeq = r.NextSeq
	s.certsRouted.Store(r.CertsRouted)
	// A fresh numbering scope, never the checkpointed one.
	s.epoch = newEpoch()
	for s.epoch == r.Epoch {
		s.epoch = newEpoch()
	}
	s.icpt.Restore(ck.pairs, ck.last.Parked)
	for i, c := range ck.certs {
		s.admitLocked(c, ck.certSeqs[i])
		s.nextSeq = max(s.nextSeq, ck.certSeqs[i]+1)
	}
	s.publishLocked()
	s.win.mu.Lock()
	s.nextSeq = max(s.nextSeq, s.win.nextSeq)
	s.win.mu.Unlock()
	// The sequences below nextSeq name what they named when the checkpoint
	// was written; the ones a re-read assigns from here may not, so a
	// cursor of the checkpointed epoch is continued only up to here.
	if r.Epoch != 0 {
		s.resumedEpoch, s.resumedSeq = r.Epoch, s.nextSeq
	}
}

// restore replays the committed chain into the window in segment order:
// each segment's eviction cutoff over what the earlier ones accumulated,
// then its records; roster and evidence batches go to ck, for the router.
// The counters, the watermark and the cutoff are the last segment's.
func (w *window) restore(ck *committed) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, sg := range ck.man.Chains[0] {
		st, err := ck.replaySegment(w.st, &w.nextSeq, sg)
		if err != nil {
			return fmt.Errorf("%s: %w", sg.Name, err)
		}
		ck.last = st
	}
	last := ck.last
	w.connsIngested, w.evicted = last.ConnsIngested, last.Evicted
	w.watermark, w.ckptCutoff = last.Watermark, last.EvictCutoff
	// Everything in the window is covered by what was just read, so the
	// next delta starts at the current sequence mark.
	w.ckptMark = w.nextSeq
	w.stateVer.Add(1)
	w.lastCkpt = time.Now()
	w.m.retained.Set(float64(w.st.ConnCount()))
	return nil
}

// replaySegment streams one segment of the chain into win past *next, its
// roster and evidence batches into ck, and returns its state frame. Any
// framing, checksum, or truncation damage surfaces as a clean error —
// never a panic or a silently partial restore — and a gob frame as the
// refusal of the shape that holds one.
func (ck *committed) replaySegment(win *store.Window, next *uint64, sg ckptSeg) (*segState, error) {
	var st *segState
	err := eachFrame(filepath.Join(ck.dir, sg.Name), sg.Bytes, func(typ byte, body []byte) (err error) {
		if 1 <= typ && typ < segFrameState {
			return retired(ck.dir, "a chain holding gob frames", previousRelease)
		}
		if (typ == segFrameState) != (st == nil) {
			return fmt.Errorf("%w: a segment is one state frame, then records", store.ErrCorrupt)
		}
		if st == nil {
			if st, err = decodeSegState(body); err != nil {
				return err
			}
			// The cutoff replays the evictions that ran between the
			// previous commit and this one, before this segment's
			// records are appended (they were alive at commit time).
			if !st.EvictCutoff.IsZero() {
				win.EvictBefore(st.EvictCutoff)
			}
			return nil
		}
		rec, err := decodeRecords(typ, body)
		if err != nil {
			return err
		}
		switch {
		case rec.certs != nil:
			return ck.restoreCerts(rec.certs, rec.seqs)
		case rec.pairs != nil:
			ck.pairs = append(ck.pairs, rec.pairs...)
			return nil
		}
		return appendRestored(win, next, rec.conns, rec.seqs)
	})
	if err == nil && st == nil {
		err = fmt.Errorf("%w: segment has no state frame", store.ErrCorrupt)
	}
	return st, err
}

// appendRestored appends one restored batch to win under its sequence
// column, which must keep the window strictly increasing past *next —
// anything else is a damaged checkpoint, refused rather than replayed out
// of order — and moves *next past it.
func appendRestored(win *store.Window, next *uint64, conns []core.ConnRecord, seqs []uint64) error {
	for i := range conns {
		if seqs[i] < *next {
			return fmt.Errorf("%w: connection sequence %d does not follow %d", store.ErrCorrupt, seqs[i], *next-1)
		}
		win.AppendConn(&conns[i], seqs[i])
		*next = seqs[i] + 1
	}
	return nil
}

// restoreCerts collects one restored roster batch for the router, each
// certificate under the admission sequence the batch aligns to it. The
// router wrote its roster as a log ascending by sequence, every
// fingerprint once; anything else is a damaged checkpoint, refused rather
// than repaired.
func (ck *committed) restoreCerts(certs []*certmodel.CertInfo, seqs []uint64) error {
	for i, c := range certs {
		n := len(ck.certSeqs)
		switch {
		case c == nil || c.Fingerprint == "":
			return fmt.Errorf("%w: roster entry without fingerprint", store.ErrCorrupt)
		case n > 0 && seqs[i] <= ck.certSeqs[n-1]:
			return fmt.Errorf("%w: certificate sequence %d does not follow %d", store.ErrCorrupt, seqs[i], ck.certSeqs[n-1])
		case ck.roster[c.Fingerprint]:
			return fmt.Errorf("%w: certificate %s is in the roster twice", store.ErrCorrupt, c.Fingerprint)
		}
		ck.roster[c.Fingerprint] = true
		ck.certs, ck.certSeqs = append(ck.certs, c), append(ck.certSeqs, seqs[i])
	}
	return nil
}
