package distrib

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// Exporter is the engine-side surface a sensor serves snapshots from: a
// stream.Engine with Config.TrackExport set.
type Exporter interface {
	// ExportFrom exports the records at or after since and the evidence
	// pairs from log position pairs on (stream.Engine.ExportFrom).
	ExportFrom(since, epoch uint64, pairs int) (*stream.ExportState, error)
	// NextPublish returns a channel closed when the engine next publishes
	// an ingest batch (stream.Engine.NextPublish).
	NextPublish() <-chan struct{}
}

// Sensor serves an exporting engine's state over HTTP: GET /snapshot
// for a full snapshot, GET /snapshot?since=<cursor>&epoch=<epoch> for a
// delta. The response is the framed stream under SchemaV2, whether
// ?schema=2 names it or no schema is named; a request naming any other
// schema is 406 Not Acceptable with the one supported in the error body,
// and a stale cursor is 410 Gone (the puller must full-resync).
//
// A request with follow=<ms> is a followed stream: after the first
// snapshot the response stays open, and the sensor writes the next one —
// the records since the previous one's NextSeq and only the evidence
// pairs new since it — whenever its engine publishes a batch, and an
// empty one after <ms> of quiet. The body is a concatenation of ordinary
// snapshots; a request without follow gets exactly the first. The stream
// ends at a snapshot boundary when the puller goes away or Close is
// called.
type Sensor struct {
	exp    Exporter
	logger *slog.Logger

	closing   chan struct{}
	closeOnce sync.Once

	served  *metrics.Counter
	deltas  *metrics.Counter
	bytes   *metrics.Counter
	stale   *metrics.Counter
	refused *metrics.Counter
	follows *metrics.Gauge
}

// NewSensor wraps an exporting engine. reg and logger may be nil.
func NewSensor(exp Exporter, reg *metrics.Registry, logger *slog.Logger) *Sensor {
	if reg == nil {
		reg = metrics.New()
	}
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Sensor{
		exp:     exp,
		logger:  logger,
		closing: make(chan struct{}),
		served:  reg.Counter("distrib_snapshots_served_total", "snapshots served", "kind", "full"),
		deltas:  reg.Counter("distrib_snapshots_served_total", "snapshots served", "kind", "delta"),
		bytes:   reg.Counter("distrib_snapshot_bytes_total", "snapshot bytes written to pullers"),
		stale:   reg.Counter("distrib_stale_cursors_total", "delta requests refused as stale (puller must full-resync)"),
		refused: reg.Counter("distrib_schema_refusals_total", "snapshot requests for schemas this build cannot serve"),
		follows: reg.Gauge("distrib_follow_streams", "snapshot streams open to pullers that follow this sensor"),
	}
}

// Close ends every followed stream at its next snapshot boundary, and
// makes later requests one-shot; it is the HTTP server's shutdown hook.
func (s *Sensor) Close() { s.closeOnce.Do(func() { close(s.closing) }) }

// apiError mirrors the daemon's JSON error envelope.
type apiError struct {
	Error string `json:"error"`
	Code  int    `json:"code"`
}

func writeAPIError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: msg, Code: code})
}

// Handler returns the /api/v1/snapshot handler.
func (s *Sensor) Handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			writeAPIError(w, http.StatusMethodNotAllowed, "method not allowed")
			return
		}
		q := r.URL.Query()
		if v := q.Get("schema"); v != "" && v != strconv.Itoa(SchemaV2) {
			s.refused.Inc()
			writeAPIError(w, http.StatusNotAcceptable,
				"unsupported snapshot schema "+v+"; supported: "+strconv.Itoa(SchemaV2))
			return
		}
		var since, epoch uint64
		var err error
		if v := q.Get("since"); v != "" {
			if since, err = strconv.ParseUint(v, 10, 64); err != nil {
				writeAPIError(w, http.StatusBadRequest, "bad since cursor")
				return
			}
		}
		if v := q.Get("epoch"); v != "" {
			if epoch, err = strconv.ParseUint(v, 10, 64); err != nil {
				writeAPIError(w, http.StatusBadRequest, "bad epoch")
				return
			}
		}
		// 32 bits of milliseconds (49 days) keep the heartbeat a positive
		// duration, whatever a request asks.
		var follow time.Duration
		if v := q.Get("follow"); v != "" {
			ms, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				writeAPIError(w, http.StatusBadRequest, "bad follow heartbeat")
				return
			}
			follow = time.Duration(ms) * time.Millisecond
		}

		wake := s.exp.NextPublish()
		st, err := s.exp.ExportFrom(since, epoch, 0)
		switch {
		case errors.Is(err, stream.ErrStaleCursor):
			s.stale.Inc()
			writeAPIError(w, http.StatusGone, err.Error())
			return
		case err != nil:
			writeAPIError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if since > 0 && st.Epoch != epoch && q.Get("adopt") == "" {
			// A restored engine continued a cursor of the epoch it restored,
			// under its fresh one. A puller that does not adopt epochs (the
			// previous release) would refuse that answer and ask again
			// forever; told the cursor is stale, it full-resyncs.
			s.stale.Inc()
			writeAPIError(w, http.StatusGone, "stream: stale export cursor: epoch "+
				strconv.FormatUint(epoch, 10)+" continues as "+strconv.FormatUint(st.Epoch, 10))
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if r.Method == http.MethodHead || !s.write(w, st) || follow == 0 {
			return
		}
		s.follow(w, r, st, wake, follow)
	}
}

// follow keeps a followed stream going after its first snapshot: flush,
// wait for the engine's next publish, the heartbeat, the puller leaving
// or Close, and write the next delta — until one of the last two, or a
// failed export or write, ends the body at a snapshot boundary.
func (s *Sensor) follow(w http.ResponseWriter, r *http.Request, st *stream.ExportState,
	wake <-chan struct{}, heartbeat time.Duration) {
	s.follows.Add(1)
	defer s.follows.Add(-1)
	rc := http.NewResponseController(w)
	t := time.NewTimer(heartbeat)
	defer t.Stop()
	for {
		if err := rc.Flush(); err != nil {
			s.logger.Warn("snapshot stream cannot flush; ending it", "err", err)
			return
		}
		select {
		case <-wake:
		case <-t.C:
		case <-r.Context().Done():
			return
		case <-s.closing:
			return
		}
		wake = s.exp.NextPublish()
		next, err := s.exp.ExportFrom(st.NextSeq, st.Epoch, st.NextPair)
		if err != nil {
			// The engine went away under the stream (a stale cursor means
			// another numbering): end it, and the puller's next request
			// learns why.
			s.logger.Info("snapshot stream ended", "err", err)
			return
		}
		if st = next; !s.write(w, st) {
			return
		}
		if !t.Stop() {
			select { // a tick that raced the wake is spent, not pending
			case <-t.C:
			default:
			}
		}
		t.Reset(heartbeat)
	}
}

// write encodes one snapshot onto the response and counts it.
func (s *Sensor) write(w io.Writer, st *stream.ExportState) bool {
	cw := &countingWriter{w: w}
	if err := Encode(cw, st); err != nil {
		// Headers are gone; all we can do is log and cut the stream
		// short — the framed trailer makes the truncation detectable.
		s.logger.Warn("snapshot encode aborted", "err", err)
		return false
	}
	s.bytes.Add(uint64(cw.n))
	if st.Since > 0 {
		s.deltas.Inc()
	} else {
		s.served.Inc()
	}
	return true
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
