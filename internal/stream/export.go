package stream

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/interception"
)

// ErrStaleCursor marks an Export call whose cursor cannot be served
// incrementally: the epoch does not match (the engine restarted with a
// fresh sequence numbering), the cursor is beyond the engine's next
// sequence, or it is one of the epoch a restored engine restored and lies
// beyond the sequence it restored to. The caller must discard its
// accumulated view and re-sync from a full snapshot (since 0).
var ErrStaleCursor = errors.New("stream: stale export cursor")

// ErrExportDisabled marks an Export call on an engine that was not
// configured with Config.TrackExport.
var ErrExportDisabled = errors.New("stream: export requires Config.TrackExport")

// ExportState is a cursor-addressable snapshot of an engine's raw state:
// everything an aggregator needs to reproduce this sensor's contribution
// to a merged analysis. Its records are the engine's columns — the roster
// log's certificates and the window's connections, each beside its
// sequence column, the layout core.ShardState and a checkpoint segment
// use — ascending by sequence and, on a delta export, only records first
// observed at or after Since. Evidence holds the detector's pairs from a
// position of its log on: all of them from Export (a confirmed-issuer
// verdict needs the whole history, not a window), only the new ones from
// an ExportFrom that continues an earlier export; Evidence.Pending is
// always the current parked count.
type ExportState struct {
	// Epoch scopes the sequence numbering; NextSeq is the cursor a caller
	// passes as since on its next delta export.
	Epoch   uint64
	Since   uint64
	NextSeq uint64

	ConnsIngested uint64
	CertsIngested uint64
	Watermark     time.Time

	// Retention is the sensor's connection retention window (zero = keep
	// everything). An aggregator folding deltas must know it: connections
	// shipped in earlier deltas fall out of this window as the watermark
	// advances, and keeping them would diverge from a daemon tailing the
	// union of the logs.
	Retention time.Duration

	// CertSeqs and ConnSeqs hold the sequence of each entry of Certs and
	// Conns (equal lengths).
	Certs    []*certmodel.CertInfo
	CertSeqs []uint64
	Conns    []core.ConnRecord
	ConnSeqs []uint64
	Evidence *interception.Evidence
	// NextPair is the detector log position past this export's evidence:
	// what a caller passes as pairs to ExportFrom for only the pairs new
	// since. It is local to the engine's lifetime and never travels.
	NextPair int `json:"-"`
}

// newEpoch derives a nonzero epoch for a fresh sequence numbering.
func newEpoch() uint64 {
	e := uint64(time.Now().UnixNano())
	if e == 0 {
		e = 1
	}
	return e
}

// Export snapshots the engine's raw state at or after cursor since, with
// the whole evidence: ExportFrom(since, epoch, 0).
func (s *Engine) Export(since, epoch uint64) (*ExportState, error) {
	return s.ExportFrom(since, epoch, 0)
}

// ExportFrom snapshots the engine's raw state at or after cursor since,
// and the detector's evidence from log position pairs on (the NextPair of
// the export it continues; 0 for all of it). since 0 is a full snapshot
// (epoch is ignored); a nonzero since must carry the epoch of the export
// it was taken from, and a mismatch — or a cursor beyond NextSeq —
// returns ErrStaleCursor. A restored engine numbers under a fresh epoch
// and also continues a cursor of the epoch it restored, up to the
// sequence it restored to: the answer carries the fresh epoch, and a
// cursor past that sequence may name records the restored engine
// numbered differently, so it is stale. The router lock is held so no new
// sequences are assigned, the window is drained so every already-assigned
// sequence is applied (otherwise a cursor could advance past in-flight
// records and a delta would skip them forever), and the evidence is the router's
// detector's. Connections already evicted by retention are not replayed
// into a delta, mirroring what the engine's own reports describe. The
// record columns are the roster log's and (on the memory store) the
// window's own memory, clipped to the captured length, so an export
// copies no record: appends land past that length, eviction swaps in
// fresh arrays, and a caller appending to a column gets a fresh array of
// its own. Requires Config.TrackExport.
func (s *Engine) ExportFrom(since, epoch uint64, pairs int) (*ExportState, error) {
	if !s.cfg.TrackExport {
		return nil, ErrExportDisabled
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if since > 0 && epoch != s.epoch && (epoch != s.resumedEpoch || since > s.resumedSeq) {
		return nil, fmt.Errorf("%w: epoch %d, engine has %d", ErrStaleCursor, epoch, s.epoch)
	}
	if since > s.nextSeq {
		return nil, fmt.Errorf("%w: since %d beyond next sequence %d", ErrStaleCursor, since, s.nextSeq)
	}
	if logged := len(s.icpt.Pairs(0)); pairs < 0 || pairs > logged {
		return nil, fmt.Errorf("stream: evidence position %d outside the detector's %d pairs", pairs, logged)
	}
	// Drain without the window's state lock: the apply goroutine never
	// takes the router lock, so it makes progress while we hold it.
	s.Drain()
	st := &ExportState{
		Epoch:     s.epoch,
		Since:     since,
		NextSeq:   s.nextSeq,
		Retention: s.cfg.Retention,
	}
	w := s.win
	w.mu.Lock()
	st.ConnsIngested, st.Watermark = w.connsIngested, w.watermark
	conns, seqs := w.st.Snapshot(since)
	w.mu.Unlock()
	st.Conns, st.ConnSeqs = column(conns, 0), column(seqs, 0)
	// The detector's log, like the roster's, only grows by appending: its
	// suffix stays readable once the lock is released.
	delta, pending := s.icpt.Pairs(pairs), s.icpt.PendingCount()
	st.NextPair = pairs + len(delta)
	st.CertsIngested = s.certsRouted.Load()
	// The roster log ascends by sequence: a delta is its suffix.
	k, _ := slices.BinarySearch(s.certSeqs, since)
	st.Certs, st.CertSeqs = column(s.roster, k), column(s.certSeqs, k)
	st.Evidence = interception.EvidenceOf(delta)
	st.Evidence.Pending = pending
	return st, nil
}

// column is s from k on as an export carries it: capacity-clipped, so an
// append to it cannot write into the memory the engine appends to next,
// and nil when empty, as a decoded snapshot holds it.
func column[T any](s []T, k int) []T {
	if k >= len(s) {
		return nil
	}
	return s[k:len(s):len(s)]
}
