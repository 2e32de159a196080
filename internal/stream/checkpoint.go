package stream

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/store"
)

// Checkpoints come in two on-disk shapes:
//
//   - Legacy: one gob file holding the full state, committed by temp+
//     rename. Still written to paths that already hold a regular file
//     (so a deployment that checkpointed before this format exists keeps
//     its file) and for the per-shard files of a sharded checkpoint
//     directory, whose manifest is the commit point for the whole set.
//
//   - Incremental (the default for fresh paths): a directory of
//     CRC-framed segment files plus a MANIFEST. Each WriteCheckpoint
//     appends one segment carrying only the delta since the previous
//     commit — connections appended since the last committed sequence mark,
//     certificates admitted since then, the latest eviction cutoff, the
//     cumulative detector state, and the counters — and then rewrites
//     the MANIFEST through the atomicfile protocol, which is the single
//     commit point. Restore replays the segments in order: apply the
//     segment's eviction cutoff to the state accumulated so far, then
//     append its records. A background compactor folds the segment
//     chain back into one base so the directory stays O(state), while
//     each interval's write stays O(delta).
//
// Crash matrix (see DESIGN.md §8 for the narrative): a crash before the
// MANIFEST rename leaves the previous commit fully intact (new segment
// files are unreferenced garbage, swept on the next write or restore);
// a crash after the rename is a completed commit (segment data was
// fsynced before the manifest named it, the manifest through
// atomicfile); mid-compaction crashes leave the old manifest and
// segments untouched.

// checkpointVersion guards the legacy on-disk format.
const checkpointVersion = 1

// ckptManifestVersion guards the incremental directory format.
const ckptManifestVersion = 1

// ckptManifestName is the commit point of an incremental checkpoint
// directory. Distinct from the sharded manifest.json so the two
// directory layouts cannot be mistaken for each other.
const ckptManifestName = "MANIFEST"

// ckptCompactEvery is the segment-chain length that triggers the
// background compactor after a delta commit.
const ckptCompactEvery = 8

// ckptConnChunk / ckptCertChunk bound one frame's record count, so a
// restore decodes bounded batches rather than one giant frame.
const (
	ckptConnChunk = 4096
	ckptCertChunk = 1024
)

// Segment frame types.
const (
	segFrameState byte = 1
	segFrameCerts byte = 2
	segFrameConns byte = 3
)

// segState is a segment's snapshot of everything that is not a record
// stream: counters, the export numbering, the eviction cutoff to replay
// before this segment's records, and the cumulative detector state
// (small next to the record stream, so every segment carries the full
// thing and the last one wins on restore).
type segState struct {
	ConnsIngested uint64
	CertsIngested uint64
	Evicted       uint64
	Rebuilds      uint64
	Watermark     time.Time
	EvictCutoff   time.Time
	Epoch         uint64
	NextSeq       uint64
	Interception  *interception.StreamState
}

// segCerts is one roster batch; Seqs aligns per-certificate admission
// sequences when the writer tracked export (nil otherwise).
type segCerts struct {
	Certs []*certmodel.CertInfo
	Seqs  []uint64
}

// segConns is one retained-connection batch in append order; Seqs
// aligns ingest sequences when the writer's were read outside its
// process (a shard or an exporting sensor; nil otherwise).
type segConns struct {
	Conns []core.ConnRecord
	Seqs  []uint64
}

// ckptSeg names one committed segment and its exact size — a referenced
// segment shorter than recorded is truncation, reported as corruption.
type ckptSeg struct {
	Name  string
	Bytes int64
}

// ckptManifest is the incremental directory's commit record.
type ckptManifest struct {
	Version  int
	Gen      uint64
	NextSeg  int
	Segments []ckptSeg
	Cursor   map[string]int64
}

// checkpointState is the legacy serialized engine: the raw ground truth
// (certificate roster, retained connections, cumulative detector state
// and counters) from which every derived structure is rebuilt on
// restore. The daemon's log-file cursor rides along so ingestion resumes
// exactly where the checkpointed state ends.
type checkpointState struct {
	Version int
	// Cursor is opaque to the engine: mtlsd stores per-file byte offsets.
	Cursor map[string]int64

	ConnsIngested uint64
	CertsIngested uint64
	Evicted       uint64
	Rebuilds      uint64
	Watermark     time.Time

	Roster       []*certmodel.CertInfo
	Conns        []core.ConnRecord
	Interception *interception.StreamState
	// Seqs are the retained connections' ingest sequences when the writer
	// was a shard of a sharded deployment or ran under TrackExport (nil
	// otherwise — restore then numbers the records in replay order; gob
	// tolerates the absent field in old checkpoints).
	Seqs []uint64
	// Export-cursor state (TrackExport engines): the numbering epoch, the
	// next sequence, and each roster fingerprint's admission sequence.
	// Zero/nil in checkpoints from engines without export, in which case
	// a TrackExport restore renumbers under a fresh epoch.
	Epoch    uint64
	NextSeq  uint64
	CertSeqs map[ids.Fingerprint]uint64
}

// WriteCheckpoint serializes the engine state (plus the caller's
// cursor) to path. A path already holding a regular file is rewritten
// in the legacy full-gob format; any other path (fresh, or an existing
// checkpoint directory) gets the incremental directory format, where
// each call appends a segment carrying only the delta since the last
// commit. The caller must ensure the cursor is consistent with the
// applied state — i.e. Drain first, then read tail offsets, then
// checkpoint.
func (e *Engine) WriteCheckpoint(path string, cursor map[string]int64) error {
	if fi, err := os.Stat(path); err == nil && !fi.IsDir() {
		return e.writeLegacyCheckpoint(path, cursor)
	}
	return e.writeIncremental(path, cursor)
}

// snapshotLegacyLocked assembles the legacy checkpoint state under mu.
// The record slices come from the window snapshot: safe to encode after
// mu is released because the window never mutates handed-out state
// (appends land beyond the captured length, eviction swaps in fresh
// arrays), so encoding sees exactly the captured prefix.
func (e *Engine) snapshotLegacyLocked(cursor map[string]int64) *checkpointState {
	conns, seqs := e.st.Snapshot()
	if !e.seqTracked() {
		seqs = nil
	}
	rebuilds, _ := e.d.stats()
	st := &checkpointState{
		Version:       checkpointVersion,
		Cursor:        cursor,
		ConnsIngested: e.connsIngested,
		CertsIngested: e.certsIngested,
		Evicted:       e.evicted,
		Rebuilds:      rebuilds,
		Watermark:     e.watermark,
		Roster:        e.rosterLocked(),
		Conns:         conns,
		Seqs:          seqs,
		Interception:  e.icpt.Snapshot(),
	}
	if e.cfg.TrackExport {
		st.Epoch, st.NextSeq = e.epoch, e.nextSeq
		st.CertSeqs = make(map[ids.Fingerprint]uint64, len(e.certSeqs))
		for fp, seq := range e.certSeqs {
			st.CertSeqs[fp] = seq
		}
	}
	return st
}

// writeLegacyCheckpoint writes the full-gob format through the
// atomicfile commit protocol (fsync on the temp file and the parent
// directory — the historical Create→Encode→Close→Rename was atomic
// against readers but not against power loss).
func (e *Engine) writeLegacyCheckpoint(path string, cursor map[string]int64) error {
	defer e.m.checkpointDur.Since(time.Now())
	e.mu.Lock()
	st := e.snapshotLegacyLocked(cursor)
	e.mu.Unlock()
	// Deterministic roster order keeps checkpoint bytes stable across
	// runs of the same state.
	sort.Slice(st.Roster, func(i, j int) bool {
		return st.Roster[i].Fingerprint < st.Roster[j].Fingerprint
	})

	var n int64
	err := atomicfile.WriteTo(path, func(f *os.File) error {
		cw := &countingWriter{w: f}
		if err := gob.NewEncoder(cw).Encode(st); err != nil {
			return fmt.Errorf("stream: checkpoint encode: %w", err)
		}
		n = cw.n
		return nil
	})
	if err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	e.m.checkpoints.Inc()
	e.m.checkpointBytes.Set(float64(n))
	e.mu.Lock()
	e.lastCkpt = time.Now()
	e.mu.Unlock()
	return nil
}

// countingWriter tracks bytes written, for the checkpoint size gauge.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// layoutErr is what a restore returns when reading dir's commit file
// (want) failed with err: err itself, unless the file is missing while
// the other deployment shape's commit file is there — the single-engine
// MANIFEST versus the sharded manifest.json. That is a refusal, not a
// not-exist error: a caller reading it as "no checkpoint yet" would
// start empty, re-tail its logs from byte 0, and then write a second
// layout into the same directory.
func layoutErr(err error, dir, want, other string) error {
	if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if _, serr := os.Stat(filepath.Join(dir, other)); serr != nil {
		return err
	}
	return fmt.Errorf("stream: %s has %s but no %s: it holds the other checkpoint layout (%s commits a single engine, %s a sharded one); restore it at the shard count it was written with, or name another path",
		dir, other, want, ckptManifestName, manifestName)
}

// readCkptManifest loads and validates a directory's MANIFEST.
func readCkptManifest(dir string) (*ckptManifest, error) {
	buf, err := os.ReadFile(filepath.Join(dir, ckptManifestName))
	if err != nil {
		return nil, err
	}
	var man ckptManifest
	if err := json.Unmarshal(buf, &man); err != nil {
		return nil, fmt.Errorf("stream: checkpoint manifest decode: %w", err)
	}
	if man.Version != ckptManifestVersion {
		return nil, fmt.Errorf("stream: checkpoint manifest version %d, want %d", man.Version, ckptManifestVersion)
	}
	return &man, nil
}

// writeCkptManifest commits a manifest through the atomicfile protocol.
func writeCkptManifest(dir string, man *ckptManifest) error {
	buf, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("stream: checkpoint manifest: %w", err)
	}
	if err := atomicfile.WriteFile(filepath.Join(dir, ckptManifestName), append(buf, '\n')); err != nil {
		return fmt.Errorf("stream: checkpoint manifest: %w", err)
	}
	return nil
}

// sweepCkptDir removes segment files the manifest does not reference
// and stale temp files — the residue of crashed commits. Caller holds
// ckptMu.
func sweepCkptDir(dir string, man *ckptManifest) {
	refd := map[string]bool{}
	if man != nil {
		for _, s := range man.Segments {
			refd[s.Name] = true
		}
	}
	if matches, err := filepath.Glob(filepath.Join(dir, "seg-*.ckpt")); err == nil {
		for _, m := range matches {
			if !refd[filepath.Base(m)] {
				os.Remove(m)
			}
		}
	}
	atomicfile.SweepTemps(dir, "*.tmp")
}

// writeSegment streams one segment to path: the state frame first, then
// the roster and connection batches, fsynced before return so the
// manifest that will reference it never names un-durable data. Returns
// the segment's size.
func writeSegment(path string, st *segState, certs []*certmodel.CertInfo, certSeqs []uint64, conns []core.ConnRecord, seqs []uint64) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: f}
	w := bufio.NewWriterSize(cw, 1<<20)
	emit := func(typ byte, payload any) error {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(payload); err != nil {
			return err
		}
		return store.WriteFrame(w, typ, body.Bytes())
	}
	err = emit(segFrameState, st)
	for i := 0; err == nil && i < len(certs); i += ckptCertChunk {
		end := min(i+ckptCertChunk, len(certs))
		batch := segCerts{Certs: certs[i:end]}
		if certSeqs != nil {
			batch.Seqs = certSeqs[i:end]
		}
		err = emit(segFrameCerts, &batch)
	}
	for i := 0; err == nil && i < len(conns); i += ckptConnChunk {
		end := min(i+ckptConnChunk, len(conns))
		batch := segConns{Conns: conns[i:end]}
		if seqs != nil {
			batch.Seqs = seqs[i:end]
		}
		err = emit(segFrameConns, &batch)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return 0, err
	}
	return cw.n, nil
}

// writeIncremental appends one delta segment (or, on first contact with
// the directory, a full base) and commits it via the MANIFEST.
func (e *Engine) writeIncremental(dir string, cursor map[string]int64) error {
	defer e.m.checkpointDur.Since(time.Now())
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("stream: checkpoint: %w", err)
	}
	if e.ckptDir != dir {
		// First contact with this directory in this process. A manifest
		// already there belongs to some other engine history — deltas
		// against an unknown base would corrupt it, so start a fresh
		// full base regardless (its commit obsoletes the old segments,
		// which the sweep below then collects).
		e.ckptDir, e.ckptMan = dir, nil
	}
	sweepCkptDir(dir, e.ckptMan)

	full := e.ckptMan == nil

	// Snapshot the delta (or everything, for a base) under the state
	// lock. All slices are fresh copies or abandon-don't-mutate
	// snapshots, so encoding proceeds after unlock without stalling
	// ingest.
	e.mu.Lock()
	var conns []core.ConnRecord
	var seqs []uint64
	var certs []*certmodel.CertInfo
	if full {
		certs = e.rosterLocked()
		conns, seqs = e.st.Snapshot()
	} else {
		e.st.Since(e.ckptMark, func(rec *core.ConnRecord, seq uint64) bool {
			conns, seqs = append(conns, *rec), append(seqs, seq)
			return true
		})
		certs = make([]*certmodel.CertInfo, 0, len(e.ckptNewCerts))
		for _, fp := range e.ckptNewCerts {
			certs = append(certs, e.roster[fp])
		}
	}
	if !e.seqTracked() {
		seqs = nil
	}
	nCerts := len(e.ckptNewCerts)
	newMark := e.nextSeq
	rebuilds, _ := e.d.stats()
	st := &segState{
		ConnsIngested: e.connsIngested,
		CertsIngested: e.certsIngested,
		Evicted:       e.evicted,
		Rebuilds:      rebuilds,
		Watermark:     e.watermark,
		EvictCutoff:   e.ckptCutoff,
		Interception:  e.icpt.Snapshot(),
	}
	var certSeqs []uint64
	if full {
		// Deterministic roster order keeps base bytes stable for the
		// same state (delta certs are already in admission order).
		sort.Slice(certs, func(i, j int) bool { return certs[i].Fingerprint < certs[j].Fingerprint })
	}
	if e.cfg.TrackExport {
		st.Epoch, st.NextSeq = e.epoch, e.nextSeq
		certSeqs = make([]uint64, len(certs))
		for i, c := range certs {
			certSeqs[i] = e.certSeqs[c.Fingerprint]
		}
	}
	e.mu.Unlock()

	man := &ckptManifest{Version: ckptManifestVersion, NextSeg: 1}
	if e.ckptMan != nil {
		cp := *e.ckptMan
		cp.Segments = append([]ckptSeg(nil), e.ckptMan.Segments...)
		man = &cp
	}
	name := fmt.Sprintf("seg-%d.ckpt", man.NextSeg)
	n, err := writeSegment(filepath.Join(dir, name), st, certs, certSeqs, conns, seqs)
	if err != nil {
		return fmt.Errorf("stream: checkpoint segment: %w", err)
	}
	man.Gen++
	man.NextSeg++
	man.Segments = append(man.Segments, ckptSeg{Name: name, Bytes: n})
	man.Cursor = cursor
	if err := writeCkptManifest(dir, man); err != nil {
		os.Remove(filepath.Join(dir, name))
		return err
	}
	e.ckptMan = man

	e.m.checkpoints.Inc()
	e.m.checkpointBytes.Set(float64(n))
	e.m.checkpointSegs.Set(float64(len(man.Segments)))
	e.mu.Lock()
	e.ckptMark = newMark
	e.ckptNewCerts = e.ckptNewCerts[nCerts:]
	e.lastCkpt = time.Now()
	e.mu.Unlock()

	if len(man.Segments) >= ckptCompactEvery {
		e.compactWG.Add(1)
		go func() {
			defer e.compactWG.Done()
			e.Compact()
		}()
	}
	return nil
}

// Compact folds the committed segment chain into one base segment, so
// the directory returns to O(state) while the per-interval delta cost
// stays O(delta). It streams frame by frame — roster frames copy
// verbatim (fingerprints are unique across segments by construction),
// connection frames are filtered by the eviction cutoffs of later
// segments — so its transient memory is one frame, not the full state.
// Runs in the background after every ckptCompactEvery-th commit; safe
// to call directly. A crash at any point leaves the previous manifest
// and its segments untouched.
func (e *Engine) Compact() error {
	if !e.compacting.CompareAndSwap(false, true) {
		return nil // a compaction is already running
	}
	defer e.compacting.Store(false)
	defer e.m.compactDur.Since(time.Now())
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	man := e.ckptMan
	if man == nil || len(man.Segments) <= 1 {
		return nil
	}
	dir := e.ckptDir

	// Pass 1: each segment's state frame, for the cutoff schedule and
	// the final (authoritative) state.
	states := make([]*segState, len(man.Segments))
	for i, sg := range man.Segments {
		st, err := readSegmentState(filepath.Join(dir, sg.Name), sg.Bytes)
		if err != nil {
			return fmt.Errorf("stream: compact %s: %w", sg.Name, err)
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

	name := fmt.Sprintf("seg-%d.ckpt", man.NextSeg)
	out, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("stream: compact: %w", err)
	}
	cw := &countingWriter{w: out}
	w := bufio.NewWriterSize(cw, 1<<20)
	fail := func(err error) error {
		out.Close()
		os.Remove(filepath.Join(dir, name))
		return fmt.Errorf("stream: compact: %w", err)
	}
	{
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(states[len(states)-1]); err != nil {
			return fail(err)
		}
		if err := store.WriteFrame(w, segFrameState, body.Bytes()); err != nil {
			return fail(err)
		}
	}
	for i, sg := range man.Segments {
		if err := copySegmentRecords(filepath.Join(dir, sg.Name), w, futureCut[i]); err != nil {
			return fail(fmt.Errorf("%s: %w", sg.Name, err))
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := out.Sync(); err != nil {
		return fail(err)
	}
	if err := out.Close(); err != nil {
		os.Remove(filepath.Join(dir, name))
		return fmt.Errorf("stream: compact: %w", err)
	}

	newMan := &ckptManifest{
		Version:  ckptManifestVersion,
		Gen:      man.Gen + 1,
		NextSeg:  man.NextSeg + 1,
		Segments: []ckptSeg{{Name: name, Bytes: cw.n}},
		Cursor:   man.Cursor,
	}
	if err := writeCkptManifest(dir, newMan); err != nil {
		os.Remove(filepath.Join(dir, name))
		return err
	}
	e.ckptMan = newMan
	for _, sg := range man.Segments {
		os.Remove(filepath.Join(dir, sg.Name))
	}
	e.m.compactions.Inc()
	e.m.checkpointSegs.Set(1)
	return nil
}

// readSegmentState returns a segment's state frame (its first frame),
// verifying the file is exactly the committed size.
func readSegmentState(path string, wantBytes int64) (*segState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return nil, err
	} else if fi.Size() != wantBytes {
		return nil, fmt.Errorf("%w: segment is %d bytes, manifest committed %d", store.ErrCorrupt, fi.Size(), wantBytes)
	}
	typ, body, err := store.ReadFrame(bufio.NewReader(f))
	if err != nil {
		return nil, err
	}
	if typ != segFrameState {
		return nil, fmt.Errorf("%w: first frame type %d, want state", store.ErrCorrupt, typ)
	}
	var st segState
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: state frame: %v", store.ErrCorrupt, err)
	}
	return &st, nil
}

// copySegmentRecords streams a segment's record frames into w: roster
// frames verbatim, connection frames filtered by cut (zero = verbatim).
func copySegmentRecords(path string, w io.Writer, cut time.Time) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	for {
		typ, body, err := store.ReadFrame(r)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch typ {
		case segFrameState:
			// The folded state frame was already written.
		case segFrameCerts:
			if err := store.WriteFrame(w, typ, body); err != nil {
				return err
			}
		case segFrameConns:
			if cut.IsZero() {
				if err := store.WriteFrame(w, typ, body); err != nil {
					return err
				}
				continue
			}
			var batch segConns
			if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&batch); err != nil {
				return fmt.Errorf("%w: conns frame: %v", store.ErrCorrupt, err)
			}
			kept := segConns{Conns: batch.Conns[:0]}
			if batch.Seqs != nil {
				kept.Seqs = batch.Seqs[:0]
			}
			for i := range batch.Conns {
				if !batch.Conns[i].TS.Before(cut) {
					kept.Conns = append(kept.Conns, batch.Conns[i])
					if batch.Seqs != nil {
						kept.Seqs = append(kept.Seqs, batch.Seqs[i])
					}
				}
			}
			if len(kept.Conns) == 0 {
				continue
			}
			var out bytes.Buffer
			if err := gob.NewEncoder(&out).Encode(&kept); err != nil {
				return err
			}
			if err := store.WriteFrame(w, typ, out.Bytes()); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unknown frame type %d", store.ErrCorrupt, typ)
		}
	}
}

// Restore starts an engine from a checkpoint written by WriteCheckpoint
// — a legacy gob file or an incremental directory — and returns the
// cursor stored with it. The restored engine's derived state is rebuilt
// lazily on first materialization; resuming ingestion from the cursor
// and draining yields reports byte-identical to an uninterrupted run.
func Restore(cfg Config, path string) (*Engine, map[string]int64, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		return restoreDir(cfg, path)
	}
	// A crash between creating <path>.tmp and the rename leaves the
	// temp behind forever on the legacy path (the incremental directory
	// sweeps its own); collect it here so checkpointed daemons do not
	// accrete one stale temp per crash.
	os.Remove(atomicfile.TempName(path))
	return restoreFile(cfg, path)
}

// restoreFile restores the legacy full-gob format.
func restoreFile(cfg Config, path string) (*Engine, map[string]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var st checkpointState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, nil, fmt.Errorf("stream: checkpoint decode: %w", err)
	}
	if st.Version != checkpointVersion {
		return nil, nil, fmt.Errorf("stream: checkpoint version %d, want %d", st.Version, checkpointVersion)
	}
	e, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	e.connsIngested = st.ConnsIngested
	e.certsIngested = st.CertsIngested
	e.evicted = st.Evicted
	e.watermark = st.Watermark
	for _, c := range st.Roster {
		e.putCertLocked(c)
	}
	seqs := st.Seqs
	if cfg.TrackExport {
		if st.Epoch != 0 {
			// The checkpoint carries export state: resume the numbering so
			// cursors taken before the restart keep working.
			e.epoch = st.Epoch
			for fp, seq := range st.CertSeqs {
				e.certSeqs[fp] = seq
			}
		} else {
			// Pre-export checkpoint: renumber everything under the fresh
			// epoch New assigned, so exports are internally consistent and
			// cursors against the old process are refused as stale.
			seqs = nil
			for fp := range e.roster {
				e.certSeqs[fp] = e.nextSeq
				e.nextSeq++
			}
		}
	}
	err = e.restoreConnsLocked(st.Conns, seqs)
	if err == nil {
		e.nextSeq = max(e.nextSeq, st.NextSeq)
		e.finishRestoreLocked(st.Interception, st.Rebuilds)
	}
	e.mu.Unlock()
	if err != nil {
		e.Close()
		return nil, nil, fmt.Errorf("stream: restore %s: %w", path, err)
	}
	return e, st.Cursor, nil
}

// restoreConnsLocked appends one restored batch to the window. Without
// a sequence column (a plain engine wrote the checkpoint, or the restore
// renumbers) the records are numbered in replay order from the engine's
// counter; a column must align with the records and keep the window
// strictly increasing — anything else is a damaged checkpoint, refused
// rather than replayed out of order. Either way the counter ends past
// everything restored.
func (e *Engine) restoreConnsLocked(conns []core.ConnRecord, seqs []uint64) error {
	if seqs != nil && len(seqs) != len(conns) {
		return fmt.Errorf("%w: %d sequences for %d connections", store.ErrCorrupt, len(seqs), len(conns))
	}
	for i := range conns {
		seq := e.nextSeq
		if seqs != nil {
			if seq = seqs[i]; seq < e.nextSeq {
				return fmt.Errorf("%w: connection sequence %d does not follow %d", store.ErrCorrupt, seq, e.nextSeq-1)
			}
		}
		e.st.AppendConn(&conns[i], seq)
		e.nextSeq = seq + 1
	}
	return nil
}

// finishRestoreLocked completes any restore: detector state, lazily
// rebuilt derived state, and checkpoint bookkeeping (everything in the
// window is covered by what was just read, so the next delta starts at
// the current sequence mark with no pending certificates).
func (e *Engine) finishRestoreLocked(icpt *interception.StreamState, rebuilds uint64) {
	e.icpt = e.det.RestoreStream(e.lookupCert, icpt)
	e.d.restored(rebuilds)
	if e.cfg.TrackExport {
		// certSeqs was restored in file order; the log wants admission
		// order.
		e.certLog = make([]ExportCert, 0, len(e.certSeqs))
		for fp, seq := range e.certSeqs {
			if c := e.roster[fp]; c != nil {
				e.certLog = append(e.certLog, ExportCert{Seq: seq, Cert: c})
			}
		}
		sortCertLog(e.certLog)
	}
	e.ckptMark = e.nextSeq
	e.ckptNewCerts = nil
	e.stateVer.Add(1)
	e.lastCkpt = time.Now()
	e.m.retained.Set(float64(e.st.ConnCount()))
}

// restoreDir restores an incremental checkpoint directory by replaying
// its committed segments in order: apply each segment's eviction cutoff
// to the state accumulated so far, then append its records. Counters,
// export numbering, and detector state come from the last segment. Any
// framing, checksum, or truncation damage surfaces as a clean error —
// never a panic or a silently partial restore.
func restoreDir(cfg Config, dir string) (*Engine, map[string]int64, error) {
	man, err := readCkptManifest(dir)
	if err != nil {
		return nil, nil, layoutErr(err, dir, ckptManifestName, manifestName)
	}
	if len(man.Segments) == 0 {
		return nil, nil, fmt.Errorf("stream: checkpoint manifest references no segments")
	}
	e, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var last *segState
	var rerr error
	renumber := false
	e.mu.Lock()
	for i, sg := range man.Segments {
		st, err := e.replaySegmentLocked(filepath.Join(dir, sg.Name), sg.Bytes, i == 0, &renumber)
		if err != nil {
			rerr = fmt.Errorf("stream: restore %s: %w", sg.Name, err)
			break
		}
		last = st
	}
	if rerr == nil {
		e.connsIngested = last.ConnsIngested
		e.certsIngested = last.CertsIngested
		e.evicted = last.Evicted
		e.watermark = last.Watermark
		if last.EvictCutoff.After(e.ckptCutoff) {
			e.ckptCutoff = last.EvictCutoff
		}
		if cfg.TrackExport && !renumber {
			e.epoch = last.Epoch
			e.nextSeq = max(e.nextSeq, last.NextSeq)
		}
		e.finishRestoreLocked(last.Interception, last.Rebuilds)
	}
	e.mu.Unlock()
	if rerr != nil {
		e.Close()
		return nil, nil, rerr
	}
	e.ckptMu.Lock()
	e.ckptDir = dir
	e.ckptMan = man
	e.ckptMu.Unlock()
	return e, man.Cursor, nil
}

// replaySegmentLocked streams one segment into the window. first+renumber
// handle the export-numbering decision: a checkpoint written without
// export state (epoch 0) restored into a TrackExport engine renumbers
// records in replay order under the fresh epoch New assigned.
func (e *Engine) replaySegmentLocked(path string, wantBytes int64, first bool, renumber *bool) (*segState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if fi, err := f.Stat(); err != nil {
		return nil, err
	} else if fi.Size() != wantBytes {
		return nil, fmt.Errorf("%w: segment is %d bytes, manifest committed %d", store.ErrCorrupt, fi.Size(), wantBytes)
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var st *segState
	for {
		typ, body, err := store.ReadFrame(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		dec := gob.NewDecoder(bytes.NewReader(body))
		switch typ {
		case segFrameState:
			if st != nil {
				return nil, fmt.Errorf("%w: duplicate state frame", store.ErrCorrupt)
			}
			st = &segState{}
			if err := dec.Decode(st); err != nil {
				return nil, fmt.Errorf("%w: state frame: %v", store.ErrCorrupt, err)
			}
			if first {
				*renumber = e.cfg.TrackExport && st.Epoch == 0
			}
			// The cutoff replays the evictions that ran between the
			// previous commit and this one, before this segment's
			// records are appended (they were alive at commit time).
			if !st.EvictCutoff.IsZero() {
				e.st.EvictBefore(st.EvictCutoff)
			}
		case segFrameCerts:
			if st == nil {
				return nil, fmt.Errorf("%w: records before state frame", store.ErrCorrupt)
			}
			var batch segCerts
			if err := dec.Decode(&batch); err != nil {
				return nil, fmt.Errorf("%w: certs frame: %v", store.ErrCorrupt, err)
			}
			for i, c := range batch.Certs {
				if c == nil || c.Fingerprint == "" {
					return nil, fmt.Errorf("%w: roster entry without fingerprint", store.ErrCorrupt)
				}
				if !e.putCertLocked(c) {
					continue
				}
				if e.cfg.TrackExport {
					switch {
					case *renumber:
						e.certSeqs[c.Fingerprint] = e.nextSeq
						e.nextSeq++
					case i < len(batch.Seqs):
						e.certSeqs[c.Fingerprint] = batch.Seqs[i]
					}
				}
			}
		case segFrameConns:
			if st == nil {
				return nil, fmt.Errorf("%w: records before state frame", store.ErrCorrupt)
			}
			var batch segConns
			if err := dec.Decode(&batch); err != nil {
				return nil, fmt.Errorf("%w: conns frame: %v", store.ErrCorrupt, err)
			}
			if *renumber {
				batch.Seqs = nil
			}
			if err := e.restoreConnsLocked(batch.Conns, batch.Seqs); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown frame type %d", store.ErrCorrupt, typ)
		}
	}
	if st == nil {
		return nil, fmt.Errorf("%w: segment has no state frame", store.ErrCorrupt)
	}
	return st, nil
}
