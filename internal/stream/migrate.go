package stream

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/store"
)

// Readers for the checkpoint shapes older than what checkpoint.go writes:
// the gob frames every segment held up to manifest version 2, the formats
// that preceded the segment-chain directory, and the directories of the
// release in which a one-shard engine checkpointed without a router.
// Nothing here writes, and gob is used nowhere else: RestoreSharded reads
// one of these, and the restored engine's first WriteCheckpoint continues
// it with frames of its own or replaces it (checkpoint.go).

// Segment frame types of manifest versions 1 and 2: one gob value each,
// through an encoder of its own.
const (
	gobFrameState byte = 1 // gobSegState
	gobFrameCerts byte = 2 // gobRecords, Certs set
	gobFrameConns byte = 3 // gobRecords, Conns set
)

// gobDetector is a detector's whole state as every gob checkpoint carried
// it: both relations and the parked observations.
type gobDetector struct {
	Observed     map[string]map[ids.Fingerprint]bool
	Contradicted map[string]map[string]bool
	Pending      map[ids.Fingerprint][]interception.PendingRef
}

// state moves what the gob carried of the detector into st: the relations
// as pairs in canonical order (a restore logs them in the order given, and
// the same bytes must restore to the same log), the parked set as it is.
func (det *gobDetector) state(st *segState) {
	if det == nil {
		return
	}
	st.Evidence = (&interception.Evidence{Observed: det.Observed, Contradicted: det.Contradicted}).Pairs()
	if st.Parked = det.Pending; st.Parked == nil {
		st.Parked = map[ids.Fingerprint][]interception.PendingRef{}
	}
}

// gobSegState is the gob state frame: the shard's counters and cutoff, in
// chain 0 (every chain, from a release that ran a detector per shard) the
// detector's cumulative state, and — from a release before the router
// owned every certificate and numbering — an exporting engine's epoch and
// next sequence.
type gobSegState struct {
	ConnsIngested uint64
	CertsIngested uint64
	Evicted       uint64
	Watermark     time.Time
	EvictCutoff   time.Time
	Interception  *gobDetector
	Epoch         uint64
	NextSeq       uint64
}

// gobRecords is a gob roster or connection batch; Seqs is nil in segments
// an older release wrote without exporting.
type gobRecords struct {
	Certs []*certmodel.CertInfo
	Conns []core.ConnRecord
	Seqs  []uint64
}

func decodeGob(body []byte, what string, into any) error {
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(into); err != nil {
		return fmt.Errorf("%w: %s frame: %v", store.ErrCorrupt, what, err)
	}
	return nil
}

func decodeGobState(body []byte) (*segState, error) {
	var g gobSegState
	if err := decodeGob(body, "state", &g); err != nil {
		return nil, err
	}
	st := &segState{
		ConnsIngested: g.ConnsIngested, Evicted: g.Evicted, Watermark: g.Watermark, EvictCutoff: g.EvictCutoff,
		CertsIngested: g.CertsIngested, Epoch: g.Epoch, NextSeq: g.NextSeq,
	}
	g.Interception.state(st)
	return st, nil
}

func decodeGobRecords(typ byte, body []byte) (segRecords, error) {
	var g gobRecords
	err := decodeGob(body, "record", &g)
	if typ == gobFrameCerts {
		return segRecords{certs: g.Certs, seqs: g.Seqs}, err
	}
	return segRecords{conns: g.Conns, seqs: g.Seqs}, err
}

// plainRouter synthesizes the router state for a checkpoint whose
// manifest has none: a one-shard engine of the previous release, which
// numbered its own events, wrote it — as a gob file, under a version-1
// MANIFEST, or under a version-2 one. What the router would have recorded
// is in the chain's last state frame: the sequence counter and epoch when
// that engine exported (else zero, and restoreRouter continues past what
// the shard numbered in replay order, under a fresh epoch), and the one
// shard counted every certificate event.
func (ck *committed) plainRouter() (*routerState, error) {
	if len(ck.last) != 1 {
		return nil, fmt.Errorf("%w: checkpoint has %d shards but no router state", store.ErrCorrupt, len(ck.last))
	}
	st := ck.last[0]
	return &routerState{NextSeq: st.NextSeq, CertsRouted: st.CertsIngested, Epoch: st.Epoch}, nil
}

// checkpointVersion guards the gob format.
const checkpointVersion = 1

// checkpointState is one engine's full state as a single gob: the raw
// ground truth (certificate roster, retained connections, cumulative
// detector state and counters) from which every report is materialized,
// and — when the file stood alone rather than under a manifest.json —
// the daemon's log-file cursor.
type checkpointState struct {
	Version int
	Cursor  map[string]int64

	ConnsIngested uint64
	CertsIngested uint64
	Evicted       uint64
	Watermark     time.Time

	Roster       []*certmodel.CertInfo
	Conns        []core.ConnRecord
	Interception *gobDetector
	// Seqs aligns ingest sequences with Conns when the writer was a shard
	// or exported (nil otherwise); Epoch, NextSeq and CertSeqs are an
	// exporting writer's numbering, zero/nil otherwise.
	Seqs     []uint64
	Epoch    uint64
	NextSeq  uint64
	CertSeqs map[ids.Fingerprint]uint64
}

// restoreFile starts a shard from a full-state gob file and returns what
// a chain's last state frame would hold. A file that stood alone carries
// its own cursor, which goes to man.
func restoreFile(cfg Config, path string, ck *committed) (*shard, *segState, error) {
	// A writer of this format that died mid-commit left <path>.tmp
	// behind; nothing else collects it once the file itself is replaced.
	os.Remove(atomicfile.TempName(path))
	f, err := openNamed(path)
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
	if st.Cursor != nil {
		ck.man.Cursor = st.Cursor
	}
	e, err := newShard(cfg)
	if err != nil {
		return nil, nil, err
	}
	// The same replay as one segment of a chain: roster, then window,
	// then the state that closes it.
	var certSeqs []uint64
	if st.CertSeqs != nil {
		certSeqs = make([]uint64, len(st.Roster))
		for i, c := range st.Roster {
			if c != nil {
				certSeqs[i] = st.CertSeqs[c.Fingerprint]
			}
		}
	}
	last := &segState{
		ConnsIngested: st.ConnsIngested,
		CertsIngested: st.CertsIngested,
		Evicted:       st.Evicted,
		Watermark:     st.Watermark,
		Epoch:         st.Epoch,
		NextSeq:       st.NextSeq,
	}
	st.Interception.state(last)
	ck.pairs[len(ck.pairs)-1] = last.Evidence
	e.mu.Lock()
	err = ck.restoreCerts(st.Roster, certSeqs)
	if err == nil {
		err = e.restoreConnsLocked(st.Conns, st.Seqs)
	}
	if err == nil {
		e.finishRestoreLocked(last)
	}
	e.mu.Unlock()
	if err != nil {
		e.close()
		return nil, nil, fmt.Errorf("stream: restore %s: %w", path, err)
	}
	return e, last, nil
}

// parentManifestName was the commit point of a sharded checkpoint
// directory: it named one generation-suffixed gob file per shard.
const parentManifestName = "manifest.json"

// readParentManifest reads dir's manifest.json as the commit record of
// one gob file per shard.
func readParentManifest(dir string) (*committed, error) {
	buf, err := os.ReadFile(filepath.Join(dir, parentManifestName))
	if err != nil {
		return nil, err
	}
	var pm struct {
		Version, Shards int
		Cursor          map[string]int64
		Files           []string
		routerState
	}
	if err := json.Unmarshal(buf, &pm); err != nil {
		return nil, fmt.Errorf("stream: %s decode: %w", parentManifestName, err)
	}
	if pm.Version != 1 {
		return nil, fmt.Errorf("stream: %s version %d, want 1", parentManifestName, pm.Version)
	}
	if pm.Shards <= 0 || pm.Shards > MaxShards || len(pm.Files) != pm.Shards {
		return nil, fmt.Errorf("stream: %s is inconsistent: %d shards, %d files", parentManifestName, pm.Shards, len(pm.Files))
	}
	ck := &committed{dir: dir, man: &ckptManifest{
		Chains: make([][]ckptSeg, pm.Shards), Cursor: pm.Cursor, Router: &pm.routerState,
	}}
	for _, f := range pm.Files {
		ck.gobs = append(ck.gobs, filepath.Join(dir, f))
	}
	return ck, nil
}
