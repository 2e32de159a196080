package stream

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
	"repro/internal/store"
)

// What the previous release (commit dc2bc03) may leave on disk beyond this
// release's frames: chains whose segments still hold the gob frames every
// segment held up to manifest version 2 — it continued such a directory in
// place until a fold. Nothing here writes, and gob is used nowhere else: a
// restore reads these frame by frame, and its first commit rewrites the
// directory as one base of this release's frames (checkpoint.go). Every
// older shape is refused by name (retired).

// Segment frame types of manifest version 2: one gob value each, through an
// encoder of its own.
const (
	gobFrameState byte = 1 // gobSegState
	gobFrameCerts byte = 2 // gobRecords, Certs set
	gobFrameConns byte = 3 // gobRecords, Conns set
)

// isGob says typ is one of manifest version 2's frame types.
func isGob(typ byte) bool { return typ <= gobFrameConns }

// retiredRelease is the build that reads every checkpoint shape older than
// the previous release's and rewrites it with its first checkpoint.
const retiredRelease = "7a5e8ef"

// retired refuses a checkpoint at path of a shape this release does not
// read, naming the shape and the build that upgrades it. It is never
// os.ErrNotExist: a caller must not take the path for "no checkpoint yet"
// and commit over the files it holds.
func retired(path, shape string) error {
	return fmt.Errorf("stream: checkpoint %s: %s is a shape this release does not read; restore it once with the build at commit %s, whose first checkpoint rewrites it",
		path, shape, retiredRelease)
}

// gobDetector is a detector's whole state as every gob checkpoint carried
// it: both relations and the parked observations.
type gobDetector struct {
	Observed     map[string]map[ids.Fingerprint]bool
	Contradicted map[string]map[string]bool
	Pending      map[ids.Fingerprint][]interception.PendingRef
}

// gobSegState is the gob state frame: a shard's counters and cutoff and,
// in chain 0 (every chain, from a release that ran a detector per shard),
// the detector's cumulative state.
type gobSegState struct {
	ConnsIngested uint64
	Evicted       uint64
	Watermark     time.Time
	EvictCutoff   time.Time
	Interception  *gobDetector
}

// gobRecords is a gob roster or connection batch under its sequences.
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
	st := &segState{ConnsIngested: g.ConnsIngested, Evicted: g.Evicted, Watermark: g.Watermark, EvictCutoff: g.EvictCutoff}
	if det := g.Interception; det != nil {
		// The relations as pairs in canonical order (a restore logs them in
		// the order given, and the same bytes must restore to the same
		// log), the parked set as it is.
		st.Evidence = (&interception.Evidence{Observed: det.Observed, Contradicted: det.Contradicted}).Pairs()
		if st.Parked = det.Pending; st.Parked == nil {
			st.Parked = map[ids.Fingerprint][]interception.PendingRef{}
		}
	}
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
