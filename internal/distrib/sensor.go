package distrib

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/stream"
)

// Exporter is the engine-side surface a sensor serves snapshots from: a
// stream.Engine with Config.TrackExport set.
type Exporter interface {
	Export(since, epoch uint64) (*stream.ExportState, error)
}

// Sensor serves an exporting engine's state over HTTP: GET /snapshot
// for a full snapshot, GET /snapshot?since=<cursor>&epoch=<epoch> for a
// delta. The response is the framed stream under SchemaV2, whether
// ?schema=2 names it or no schema is named; a request naming any other
// schema is 406 Not Acceptable with the one supported in the error body,
// and a stale cursor is 410 Gone (the puller must full-resync).
type Sensor struct {
	exp    Exporter
	logger *slog.Logger

	served  *metrics.Counter
	deltas  *metrics.Counter
	bytes   *metrics.Counter
	stale   *metrics.Counter
	refused *metrics.Counter
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
		served:  reg.Counter("distrib_snapshots_served_total", "snapshots served", "kind", "full"),
		deltas:  reg.Counter("distrib_snapshots_served_total", "snapshots served", "kind", "delta"),
		bytes:   reg.Counter("distrib_snapshot_bytes_total", "snapshot bytes written to pullers"),
		stale:   reg.Counter("distrib_stale_cursors_total", "delta requests refused as stale (puller must full-resync)"),
		refused: reg.Counter("distrib_schema_refusals_total", "snapshot requests for schemas this build cannot serve"),
	}
}

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

		st, err := s.exp.Export(since, epoch)
		switch {
		case errors.Is(err, stream.ErrStaleCursor):
			s.stale.Inc()
			writeAPIError(w, http.StatusGone, err.Error())
			return
		case err != nil:
			writeAPIError(w, http.StatusInternalServerError, err.Error())
			return
		}

		snap := FromExport(st)
		w.Header().Set("Content-Type", "application/octet-stream")
		if r.Method == http.MethodHead {
			return
		}
		cw := &countingWriter{w: w}
		if err := Encode(cw, snap); err != nil {
			// Headers are gone; all we can do is log and cut the stream
			// short — the framed trailer makes the truncation detectable.
			s.logger.Warn("snapshot encode aborted", "err", err)
			return
		}
		s.bytes.Add(uint64(cw.n))
		if since > 0 {
			s.deltas.Inc()
		} else {
			s.served.Inc()
		}
	}
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
