package distrib

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/certmodel"
	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interception"
)

// tinySnapshot is a small deterministic snapshot (no clock reads) used
// to seed the fuzzer with a structurally valid stream.
func tinySnapshot() *Snapshot {
	ts := time.Date(2022, 6, 1, 0, 0, 0, 0, time.UTC)
	cert := &certmodel.CertInfo{
		Fingerprint: "fp1", SerialHex: "0A", Version: 3,
		IssuerOrg: "Issuer", SubjectCN: "host.example",
		NotBefore: ts, NotAfter: ts.AddDate(1, 0, 0),
	}
	return &Snapshot{
		Epoch: 7, NextSeq: 2, ConnsIngested: 1, CertsIngested: 1,
		Watermark: ts,
		Certs:     []*certmodel.CertInfo{cert},
		CertSeqs:  []uint64{0},
		Conns: []core.ConnRecord{{
			TS: ts, UID: "C1", SNI: "host.example", Established: true,
			ServerChain: []ids.Fingerprint{"fp1"}, Weight: 3,
		}},
		ConnSeqs: []uint64{1},
		Evidence: &interception.Evidence{
			Observed:     map[string]map[ids.Fingerprint]bool{"Issuer": {"fp1": true}},
			Contradicted: map[string]map[string]bool{"Issuer": {"example.com": true}},
		},
	}
}

// schema1Body frames s the way the retired schema 1 did: the same frames
// in the same order, each payload one JSON value, the records in rows.
func schema1Body(s *Snapshot) []byte {
	r := rowsOf(s)
	b := []byte(magic)
	frame := func(typ byte, v any) {
		buf, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		b = append(binary.AppendUvarint(append(b, typ), uint64(len(buf))), buf...)
	}
	frame(frameHeader, struct {
		Schema                                              int
		Epoch, Since, NextSeq, ConnsIngested, CertsIngested uint64
		Watermark                                           time.Time
	}{1, s.Epoch, s.Since, s.NextSeq, s.ConnsIngested, s.CertsIngested, s.Watermark})
	for off := 0; off < len(r.Certs); off += frameRecords {
		frame(frameCerts, r.Certs[off:min(off+frameRecords, len(r.Certs))])
	}
	for off := 0; off < len(r.Conns); off += frameRecords {
		frame(frameConns, r.Conns[off:min(off+frameRecords, len(r.Conns))])
	}
	frame(frameEvidence, s.Evidence)
	frame(frameTrailer, struct{ Certs, Conns int }{len(s.Certs), len(s.Conns)})
	return b
}

// FuzzSnapshotDecode pins the codec's hard properties: hostile bytes never
// panic the decoder, a header opening with '{' — schema 1's JSON, whatever
// number it claims — never decodes, and any stream the decoder accepts
// re-encodes to a canonical fixed point — encode(decode(x)) decodes to the
// same snapshot and re-encodes byte-identically.
func FuzzSnapshotDecode(f *testing.F) {
	json1 := schema1Body(tinySnapshot())
	f.Add(json1)
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte("NOTASNAP"))
	f.Add(json1[:len(json1)-2])
	f.Add(append([]byte(magic), frameHeader, 2, '{', '}'))
	f.Add(append([]byte(magic), 'Z', 0))
	f.Add(bytes.Replace(json1, []byte(`"Weight":3`), []byte(`"Weight":0`), 1))
	f.Add(bytes.Replace(json1, []byte(`"Schema":1`), []byte(`"Schema":9`), 1))
	// The binary schema, whole and damaged, and a JSON header claiming its
	// number.
	var v2 bytes.Buffer
	if err := Encode(&v2, tinySnapshot()); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(v2.Bytes()[:len(v2.Bytes())-2])
	f.Add(bytes.Replace(v2.Bytes(), []byte("example.com"), []byte("example.co\x00"), 1))
	f.Add(bytes.Replace(json1, []byte(`"Schema":1`), []byte(`"Schema":2`), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A header frame opening with '{' never decodes.
		if h := data[len(magic):]; h[0] == frameHeader {
			if n, k := binary.Uvarint(h[1:]); k > 0 && n > 0 && h[1+k] == '{' {
				t.Fatal("a header opening with '{' decoded")
			}
		}
		var b1 bytes.Buffer
		if err := Encode(&b1, s); err != nil {
			t.Fatalf("accepted snapshot failed to re-encode: %v", err)
		}
		s2, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("canonical bytes failed to decode: %v", err)
		}
		var b2 bytes.Buffer
		if err := Encode(&b2, s2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("encode(decode(encode(decode(x)))) is not byte-identical")
		}
	})
}
