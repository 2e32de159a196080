package distrib

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/workload"
)

func inputFromBuild(b *workload.Build) *core.Input {
	return &core.Input{
		Raw:           b.Raw,
		CT:            b.CT,
		Bundle:        b.Bundle,
		CampusIssuers: b.CampusIssuers,
		Assoc: core.AssocMap{
			HealthSLDs:     b.Assoc.HealthSLDs,
			UniversitySLDs: b.Assoc.UniversitySLDs,
			VPNHostPrefix:  b.Assoc.VPNHostPrefix,
			LocalOrgSLDs:   b.Assoc.LocalOrgSLDs,
			ThirdPartySLDs: b.Assoc.ThirdPartySLDs,
			GlobusSLDs:     b.Assoc.GlobusSLDs,
		},
		Plan:   b.Plan,
		Months: b.Months,
	}
}

func genBuild(seed uint64, scale int) *workload.Build {
	cfg := workload.Default()
	cfg.Seed = seed
	cfg.CertScale = scale
	return workload.Generate(cfg)
}

// exportedSnapshot drains a build through an exporting engine and wraps
// the full export.
func exportedSnapshot(t *testing.T, seed uint64, scale int) *Snapshot {
	t.Helper()
	b := genBuild(seed, scale)
	in := inputFromBuild(b)
	in.Raw = nil
	e, err := stream.New(stream.Config{Input: in, TrackExport: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	for _, c := range b.Raw.Certs {
		e.IngestCert(&core.CertRecord{TS: c.NotBefore, Cert: c})
	}
	for i := range b.Raw.Conns {
		e.IngestConn(&b.Raw.Conns[i])
	}
	e.Drain()
	st, err := e.Export(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return FromExport(st)
}

func TestCodecRoundTrip(t *testing.T) {
	s := exportedSnapshot(t, 20240504, 600)
	if len(s.Certs) == 0 || len(s.Conns) == 0 || s.Evidence == nil {
		t.Fatal("snapshot is vacuous")
	}
	if s.Schema != SchemaV2 {
		t.Fatalf("FromExport stamps schema %d, want the newest (%d)", s.Schema, SchemaV2)
	}

	size := map[int]int{}
	for _, schema := range SupportedSchemas() {
		s.Schema = schema
		var b1 bytes.Buffer
		if err := Encode(&b1, s); err != nil {
			t.Fatal(err)
		}
		size[schema] = b1.Len()
		d1, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if d1.Schema != schema || d1.Epoch != s.Epoch || d1.NextSeq != s.NextSeq {
			t.Fatalf("schema %d: header drifted: schema %d epoch %d next %d", schema, d1.Schema, d1.Epoch, d1.NextSeq)
		}
		if len(d1.Certs) != len(s.Certs) || len(d1.Conns) != len(s.Conns) {
			t.Fatalf("schema %d: record counts drifted: %d/%d certs, %d/%d conns", schema,
				len(d1.Certs), len(s.Certs), len(d1.Conns), len(s.Conns))
		}
		// The binary payloads carry every field as it is; JSON moves time
		// locations and drops the raw encoding, so only they are held to
		// deep equality.
		if schema == SchemaV2 && !reflect.DeepEqual(d1, s) {
			t.Fatal("schema 2: decoded snapshot is not deeply equal to the one encoded")
		}

		// Canonical form: encode(decode(bytes)) is byte-identical, and a
		// second round trip is a fixed point.
		var b2 bytes.Buffer
		if err := Encode(&b2, d1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("schema %d: re-encode is not byte-identical", schema)
		}
		d2, err := Decode(bytes.NewReader(b2.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(d1, d2) {
			t.Fatalf("schema %d: second decode drifted", schema)
		}
	}
	if size[SchemaV2]*2 > size[SchemaV1] {
		t.Errorf("schema 2 body is %d bytes against schema 1's %d: want under half", size[SchemaV2], size[SchemaV1])
	}
}

// TestCodecTruncatedBinary: a SchemaV2 body cut at any byte is a decode
// error — the trailer closes the stream, so there is no prefix that parses.
func TestCodecTruncatedBinary(t *testing.T) {
	s := tinySnapshot()
	s.Schema = SchemaV2
	var body bytes.Buffer
	if err := Encode(&body, s); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(body.Bytes())); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < body.Len(); cut++ {
		if _, err := Decode(bytes.NewReader(body.Bytes()[:cut])); !errors.Is(err, errCodec) {
			t.Fatalf("cut at %d of %d: err = %v, want a codec error", cut, body.Len(), err)
		}
	}
}

func TestCodecEmptySnapshot(t *testing.T) {
	s := &Snapshot{Schema: SchemaV1, Epoch: 42, NextSeq: 0, Watermark: time.Time{}.AddDate(0, 0, 1)}
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		t.Fatal(err)
	}
	d, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Certs) != 0 || len(d.Conns) != 0 || d.Epoch != 42 {
		t.Fatalf("empty snapshot drifted: %+v", d)
	}
}

func TestCodecRejects(t *testing.T) {
	valid := func() []byte {
		var buf bytes.Buffer
		if err := Encode(&buf, exportedSnapshot(t, 7, 200)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("NOTASNAP"),
		"magic only":       []byte(magic),
		"truncated frame":  valid[:len(valid)-3],
		"no trailer":       valid[:len(valid)/2],
		"garbage payload":  append([]byte(magic), frameHeader, 4, 'a', 'b', 'c', 'd'),
		"oversized length": append([]byte(magic), frameHeader, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"unknown frame":    append([]byte(magic), 'Z', 2, '{', '}'),
	}
	for name, in := range cases {
		if _, err := Decode(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: decode accepted hostile input", name)
		}
	}

	// A schema from the future is refused with ErrSchema specifically.
	var buf bytes.Buffer
	if err := Encode(&buf, &Snapshot{Schema: 999}); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrSchema) {
		t.Errorf("future schema: err = %v, want ErrSchema", err)
	}
}
