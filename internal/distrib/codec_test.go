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
		Plan: b.Plan,
	}
}

func genBuild(seed uint64, scale int) *workload.Build {
	b, err := workload.FromSpec(nil, workload.Config{Seed: seed, CertScale: scale})
	if err != nil {
		panic(err)
	}
	return b
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
	var b1 bytes.Buffer
	if err := Encode(&b1, s); err != nil {
		t.Fatal(err)
	}
	d1, err := Decode(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, s) {
		t.Fatal("decoded snapshot is not deeply equal to the one encoded")
	}

	// Canonical form: encode(decode(bytes)) is byte-identical, and a
	// second round trip is a fixed point.
	var b2 bytes.Buffer
	if err := Encode(&b2, d1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("re-encode is not byte-identical")
	}
	d2, err := Decode(bytes.NewReader(b2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("second decode drifted")
	}
}

// TestCodecTruncatedBinary: a body cut at any byte is a decode error — the
// trailer closes the stream, so there is no prefix that parses.
// TestCodecRefusesRaggedColumns: a snapshot whose records and sequence
// columns differ in length is not encoded at all — not a byte is written.
func TestCodecRefusesRaggedColumns(t *testing.T) {
	for name, cut := range map[string]func(*Snapshot){
		"certs": func(s *Snapshot) { s.CertSeqs = s.CertSeqs[:len(s.CertSeqs)-1] },
		"conns": func(s *Snapshot) { s.ConnSeqs = append(s.ConnSeqs, s.NextSeq) },
	} {
		s := tinySnapshot()
		cut(s)
		var b bytes.Buffer
		if err := Encode(&b, s); err == nil || b.Len() != 0 {
			t.Errorf("%s: ragged columns encoded to %d bytes (err %v)", name, b.Len(), err)
		}
	}
}

func TestCodecTruncatedBinary(t *testing.T) {
	s := tinySnapshot()
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
	s := &Snapshot{Epoch: 42, NextSeq: 0, Watermark: time.Time{}.AddDate(0, 0, 1)}
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

	// Another schema is refused with ErrSchema specifically: one from the
	// future (the header's first byte is the schema number), and the
	// retired schema 1's JSON frames.
	var buf bytes.Buffer
	if err := Encode(&buf, &Snapshot{}); err != nil {
		t.Fatal(err)
	}
	future := buf.Bytes()
	if at := len(magic) + 2; future[at] != SchemaV2 {
		t.Fatalf("header opens with %d, want the schema number", future[at])
	} else {
		future[at] = 99
	}
	for name, in := range map[string][]byte{"future schema": future, "schema 1": schema1Body(tinySnapshot())} {
		if _, err := Decode(bytes.NewReader(in)); !errors.Is(err, ErrSchema) {
			t.Errorf("%s: err = %v, want ErrSchema", name, err)
		}
	}
}
