package main

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/distrib"
	"repro/internal/zeek"
)

// statsReading is what one /api/v1/stats request reads: the body without
// its two maps, whose contents it holds as key-sorted pairs instead, so a
// request builds no map. body is the daemonStats it stands for.
type statsReading struct {
	ds      daemonStats        // RejectedByReason and TailLag stay nil
	rejects []zeek.RejectCount // nonzero, sorted by key
	lag     []lagReading       // sorted by file; empty on an aggregator
}

// lagReading is one tail-lag gauge as the stats body carries it.
type lagReading struct {
	file  string
	bytes int64
}

// body is the daemonStats r stands for, maps and all: what encoding/json
// is handed where appendStats cannot write the bytes it would.
func (r *statsReading) body() daemonStats {
	ds := r.ds
	if len(r.rejects) > 0 {
		ds.RejectedByReason = make(map[string]uint64, len(r.rejects))
		for _, rc := range r.rejects {
			ds.RejectedByReason[rc.Key] = rc.N
		}
	}
	if len(r.lag) > 0 {
		ds.TailLag = make(map[string]int64, len(r.lag))
		for _, l := range r.lag {
			ds.TailLag[l.file] = l.bytes
		}
	}
	return ds
}

// appendStats appends the body r stands for exactly as a json.Encoder
// with SetIndent("", "  ") writes it: fields in declaration order, map
// keys sorted, HTML-safe strings, a trailing newline.
// TestStatsBodyMatchesEncodingJSON and FuzzStatsBody hold it to that.
// ok is false where encoding/json fails instead (a time outside years
// 0–9999 or a zone a day or more from UTC, a non-finite float); b is then
// not a body.
func appendStats(b []byte, r *statsReading) (_ []byte, ok bool) {
	ds, s := &r.ds, &r.ds.Stats
	ok = true
	var tok bool
	b = append(b, "{\n  \"ConnsIngested\": "...)
	b = strconv.AppendUint(b, s.ConnsIngested, 10)
	b = append(b, ",\n  \"CertsIngested\": "...)
	b = strconv.AppendUint(b, s.CertsIngested, 10)
	b = append(b, ",\n  \"Dropped\": "...)
	b = strconv.AppendUint(b, s.Dropped, 10)
	b = append(b, ",\n  \"Rejected\": "...)
	b = strconv.AppendUint(b, s.Rejected, 10)
	b = append(b, ",\n  \"Retained\": "...)
	b = strconv.AppendInt(b, int64(s.Retained), 10)
	b = append(b, ",\n  \"Evicted\": "...)
	b = strconv.AppendUint(b, s.Evicted, 10)
	b = append(b, ",\n  \"Rebuilds\": "...)
	b = strconv.AppendUint(b, s.Rebuilds, 10)
	b = append(b, ",\n  \"Dirty\": "...)
	b = strconv.AppendBool(b, s.Dirty)
	b = append(b, ",\n  \"UniqueCerts\": "...)
	b = strconv.AppendInt(b, int64(s.UniqueCerts), 10)
	b = append(b, ",\n  \"ExcludedCerts\": "...)
	b = strconv.AppendInt(b, int64(s.ExcludedCerts), 10)
	b = append(b, ",\n  \"InterceptionIssuers\": "...)
	b = strconv.AppendInt(b, int64(s.InterceptionIssuers), 10)
	b = append(b, ",\n  \"PendingCerts\": "...)
	b = strconv.AppendInt(b, int64(s.PendingCerts), 10)
	b = append(b, ",\n  \"Watermark\": "...)
	b, tok = appendTime(b, s.Watermark)
	ok = ok && tok
	b = append(b, ",\n  \"LastCheckpoint\": "...)
	b, tok = appendTime(b, s.LastCheckpoint)
	ok = ok && tok
	b = append(b, ",\n  \"CheckpointAge\": "...)
	b, tok = appendFloat(b, s.CheckpointAge)
	ok = ok && tok
	b = append(b, ",\n  \"Role\": "...)
	b = appendString(b, ds.Role)
	if len(ds.Sensors) > 0 {
		b = append(b, ",\n  \"Sensors\": ["...)
		for i := range ds.Sensors {
			if i > 0 {
				b = append(b, ',')
			}
			b, tok = appendSensor(b, &ds.Sensors[i])
			ok = ok && tok
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"RowsRejected\": "...)
	b = strconv.AppendUint(b, ds.RowsRejected, 10)
	if len(r.rejects) > 0 {
		b = append(b, ",\n  \"RejectedByReason\": {"...)
		for i, rc := range r.rejects {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendString(b, rc.Key)
			b = append(b, ": "...)
			b = strconv.AppendUint(b, rc.N, 10)
		}
		b = append(b, "\n  }"...)
	}
	b = append(b, ",\n  \"TailErrors\": "...)
	b = strconv.AppendUint(b, ds.TailErrors, 10)
	if len(r.lag) > 0 {
		b = append(b, ",\n  \"TailLag\": {"...)
		for i, l := range r.lag {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendString(b, l.file)
			b = append(b, ": "...)
			b = strconv.AppendInt(b, l.bytes, 10)
		}
		b = append(b, "\n  }"...)
	}
	return append(b, "\n}\n"...), ok
}

// appendSensor appends one element of the Sensors array.
func appendSensor(b []byte, s *distrib.SensorStatus) (_ []byte, ok bool) {
	var fok bool
	b = append(b, "\n    {\n      \"URL\": "...)
	b = appendString(b, s.URL)
	b = append(b, ",\n      \"Schema\": "...)
	b = strconv.AppendInt(b, int64(s.Schema), 10)
	b = append(b, ",\n      \"Epoch\": "...)
	b = strconv.AppendUint(b, s.Epoch, 10)
	b = append(b, ",\n      \"Cursor\": "...)
	b = strconv.AppendUint(b, s.Cursor, 10)
	b = append(b, ",\n      \"Certs\": "...)
	b = strconv.AppendInt(b, int64(s.Certs), 10)
	b = append(b, ",\n      \"Conns\": "...)
	b = strconv.AppendInt(b, int64(s.Conns), 10)
	b = append(b, ",\n      \"ConnsIngested\": "...)
	b = strconv.AppendUint(b, s.ConnsIngested, 10)
	b = append(b, ",\n      \"LastSync\": "...)
	b, ok = appendTime(b, s.LastSync)
	b = append(b, ",\n      \"LastSyncAge\": "...)
	b, fok = appendFloat(b, s.LastSyncAge)
	b = append(b, ",\n      \"LastError\": "...)
	b = appendString(b, s.LastError)
	b = append(b, ",\n      \"Syncs\": "...)
	b = strconv.AppendUint(b, s.Syncs, 10)
	b = append(b, ",\n      \"Errors\": "...)
	b = strconv.AppendUint(b, s.Errors, 10)
	b = append(b, ",\n      \"FullResyncs\": "...)
	b = strconv.AppendUint(b, s.FullResyncs, 10)
	b = append(b, ",\n      \"Bytes\": "...)
	b = strconv.AppendUint(b, s.Bytes, 10)
	b = append(b, ",\n      \"Evicted\": "...)
	b = strconv.AppendUint(b, s.Evicted, 10)
	return append(b, "\n    }"...), ok && fok
}

// appendTime appends t as time.Time.MarshalJSON does; ok is false where
// MarshalJSON fails: a year that is not four digits, or a zone offset of
// 24 hours or more.
func appendTime(b []byte, t time.Time) (_ []byte, ok bool) {
	b = append(b, '"')
	n0 := len(b)
	b = t.AppendFormat(b, time.RFC3339Nano)
	if b[n0+len("9999")] != '-' {
		return b, false
	}
	if n := len(b); b[n-1] != 'Z' {
		c := b[n-len("Z07:00")]
		if '0' <= c && c <= '9' || 10*(b[n-5]-'0')+(b[n-4]-'0') >= 24 {
			return b, false
		}
	}
	return append(b, '"'), true
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal, in exponent form below 1e-6 and from 1e21 on with a
// two-digit exponent cut to one (1e-07 → 1e-7). ok is false for NaN and
// the infinities, which it refuses.
func appendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// appendString appends s quoted as encoding/json quotes a string with
// HTML escaping on (its default): <, > and & as \u003c, \u003e and
// \u0026, U+2028 and U+2029 as \u2028 and \u2029, each invalid UTF-8
// byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
