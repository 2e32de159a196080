package distrib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/interception"
	"repro/internal/store"
)

// The stream layout is strict and therefore canonical: the magic
// string, a header frame, zero or more certificate frames, zero or more
// connection frames, one evidence frame, and a trailer frame carrying
// the record counts (so a truncated stream is detected even when it
// ends on a frame boundary). Each frame is one type byte, a uvarint
// payload length, and a payload. Records travel in bounded batches —
// frameRecords per frame — so encoding streams in O(batch) memory and a
// snapshot larger than any single HTTP buffer flows through cleanly.
//
// The payloads are the record codec a checkpoint segment carries
// (store/record.go): the header is the schema number (SchemaV2), the
// counters as uvarints, the watermark and the retention; a record frame a
// count and that many records under their sequences; the evidence frame a
// presence byte, the parked count and every pair in
// interception.ComparePairs order; the trailer two counts. A header under
// any other schema is refused with ErrSchema — among them the JSON frames
// of the retired schema 1, whose header opens with '{'.
const (
	magic = "MTLSSNAP"

	frameHeader   = 'H'
	frameCerts    = 'C'
	frameConns    = 'N'
	frameEvidence = 'E'
	frameTrailer  = 'T'

	// frameRecords is the encoder's records-per-frame batch size.
	frameRecords = 512
	// maxFrame bounds a declared payload length; a hostile length
	// prefix must not make the decoder allocate unbounded memory.
	maxFrame = 64 << 20
)

// ErrSchema marks a snapshot under a schema this build does not decode;
// nothing of it is merged.
var ErrSchema = errors.New("distrib: unsupported snapshot schema")

// errCodec prefixes decode failures; hostile bytes yield errors
// wrapping it, never panics.
var errCodec = errors.New("distrib: snapshot decode")

// trailer is the 'T' frame payload: total record counts for truncation
// detection.
type trailer struct {
	Certs int
	Conns int
}

// frameRoom is the space a frame's type byte and length prefix may need
// ahead of its payload.
const frameRoom = 1 + binary.MaxVarintLen64

// frameBufs recycles Encode's frame buffer: a followed sensor encodes a
// snapshot per published batch, most of them a few hundred bytes, and a
// fresh 64 KiB buffer each was a tenth of its profile.
var frameBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// Encode writes s as one framed snapshot stream. Every frame is encoded
// into one buffer, behind room for its prefix, and goes out in one Write.
// The output is canonical: encoding the result of Decode reproduces the
// bytes Decode's input would have had under this encoder (evidence pairs
// are sorted, batch boundaries are fixed, and the frame order is strict),
// which is what the fuzz harness pins.
func Encode(w io.Writer, s *Snapshot) error {
	if len(s.Certs) != len(s.CertSeqs) || len(s.Conns) != len(s.ConnSeqs) {
		return fmt.Errorf("distrib: encode: %d certificates under %d sequences, %d connections under %d",
			len(s.Certs), len(s.CertSeqs), len(s.Conns), len(s.ConnSeqs))
	}
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	pooled := frameBufs.Get().(*[]byte)
	buf := (*pooled)[:frameRoom]
	defer func() {
		*pooled = buf[:0]
		frameBufs.Put(pooled)
	}()
	flush := func(typ byte) error {
		var prefix [frameRoom]byte
		prefix[0] = typ
		n := 1 + binary.PutUvarint(prefix[1:], uint64(len(buf)-frameRoom))
		start := frameRoom - n
		copy(buf[start:], prefix[:n])
		_, err := w.Write(buf[start:])
		buf = buf[:frameRoom]
		return err
	}

	buf = binary.AppendUvarint(buf, SchemaV2)
	buf = binary.AppendUvarint(buf, s.Epoch)
	buf = binary.AppendUvarint(buf, s.Since)
	buf = binary.AppendUvarint(buf, s.NextSeq)
	buf = binary.AppendUvarint(buf, s.ConnsIngested)
	buf = binary.AppendUvarint(buf, s.CertsIngested)
	buf = store.AppendTime(buf, s.Watermark)
	buf = binary.AppendVarint(buf, int64(s.Retention))
	if err := flush(frameHeader); err != nil {
		return err
	}
	for off := 0; off < len(s.Certs); off += frameRecords {
		end := min(off+frameRecords, len(s.Certs))
		buf = store.AppendCerts(buf, s.Certs[off:end], s.CertSeqs[off:end])
		if err := flush(frameCerts); err != nil {
			return err
		}
	}
	for off := 0; off < len(s.Conns); off += frameRecords {
		end := min(off+frameRecords, len(s.Conns))
		buf = store.AppendConns(buf, s.Conns[off:end], s.ConnSeqs[off:end])
		if err := flush(frameConns); err != nil {
			return err
		}
	}
	buf = store.AppendBool(buf, s.Evidence != nil)
	if s.Evidence != nil {
		buf = binary.AppendUvarint(buf, uint64(s.Evidence.Pending))
		buf = store.AppendPairs(buf, s.Evidence.Pairs())
	}
	if err := flush(frameEvidence); err != nil {
		return err
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Certs)))
	buf = binary.AppendUvarint(buf, uint64(len(s.Conns)))
	return flush(frameTrailer)
}

// Decode reads one framed snapshot stream and nothing past its trailer, so
// a body carrying several — a followed sensor's — is read by calling it
// once per snapshot; a body that ends where a snapshot would begin yields
// an error wrapping io.EOF. It validates as it goes: unknown
// frame types, out-of-order frames, oversized or truncated payloads,
// malformed payloads, schemas other than SchemaV2 (ErrSchema),
// non-positive connection weights, unkeyed certificates, sequence-order
// violations, evidence pairs out of canonical order and record counts
// disagreeing with the trailer are all errors, never panics. A decoded
// snapshot therefore always re-encodes cleanly and is safe to hand to the
// merge path.
func Decode(r io.Reader) (*Snapshot, error) {
	br := &byteReader{r: r}
	var m [len(magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %w", errCodec, err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", errCodec, m)
	}

	s := &Snapshot{}
	var tr *trailer
	seenHeader, seenEvidence := false, false
	// stage enforces the strict frame order: each frame type may only
	// appear at or after its stage, and record frames may not follow
	// the evidence frame.
	stage := 0 // 0=header 1=certs 2=conns 3=evidence 4=trailer
	var buf []byte
	for tr == nil {
		typ, payload, err := readFrame(br, buf)
		if err != nil {
			return nil, err
		}
		buf = payload[:0] // every decoder below copies what it keeps
		switch typ {
		case frameHeader:
			if stage > 0 {
				return nil, fmt.Errorf("%w: duplicate header frame", errCodec)
			}
			if err := decodeHeader(payload, s); err != nil {
				return nil, err
			}
			if s.Retention < 0 {
				return nil, fmt.Errorf("%w: negative retention", errCodec)
			}
			seenHeader = true
			stage = 1
		case frameCerts:
			if !seenHeader || stage > 1 {
				return nil, fmt.Errorf("%w: certificate frame out of order", errCodec)
			}
			d := store.NewDecoder(payload)
			certs, seqs := d.Certs()
			if err := binaryErr("certs", d); err != nil {
				return nil, err
			}
			n := len(s.Certs)
			s.Certs, s.CertSeqs = append(s.Certs, certs...), append(s.CertSeqs, seqs...)
			for i := n; i < len(s.Certs); i++ {
				c := s.Certs[i]
				if c == nil || c.Fingerprint == "" {
					return nil, fmt.Errorf("%w: unkeyed certificate", errCodec)
				}
				if i > 0 && (s.CertSeqs[i] < s.CertSeqs[i-1] ||
					(s.CertSeqs[i] == s.CertSeqs[i-1] && c.Fingerprint <= s.Certs[i-1].Fingerprint)) {
					return nil, fmt.Errorf("%w: certificate order violation at %d", errCodec, i)
				}
			}
		case frameConns:
			if !seenHeader || stage > 2 {
				return nil, fmt.Errorf("%w: connection frame out of order", errCodec)
			}
			stage = 2
			d := store.NewDecoder(payload)
			conns, seqs := d.Conns()
			if err := binaryErr("conns", d); err != nil {
				return nil, err
			}
			n := len(s.Conns)
			s.Conns, s.ConnSeqs = append(s.Conns, conns...), append(s.ConnSeqs, seqs...)
			for i := n; i < len(s.Conns); i++ {
				if s.Conns[i].Weight < 1 {
					return nil, fmt.Errorf("%w: connection weight below 1", errCodec)
				}
				if i > 0 && s.ConnSeqs[i] <= s.ConnSeqs[i-1] {
					return nil, fmt.Errorf("%w: connection sequence not ascending at %d", errCodec, i)
				}
			}
		case frameEvidence:
			if !seenHeader || seenEvidence {
				return nil, fmt.Errorf("%w: evidence frame out of order", errCodec)
			}
			if s.Evidence, err = decodeEvidence(payload); err != nil {
				return nil, err
			}
			seenEvidence = true
			stage = 3
		case frameTrailer:
			if !seenEvidence {
				return nil, fmt.Errorf("%w: trailer before evidence", errCodec)
			}
			if tr, err = decodeTrailer(payload); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: unknown frame type %q", errCodec, typ)
		}
	}
	if tr.Certs != len(s.Certs) || tr.Conns != len(s.Conns) {
		return nil, fmt.Errorf("%w: trailer counts %d/%d, stream carried %d/%d",
			errCodec, tr.Certs, tr.Conns, len(s.Certs), len(s.Conns))
	}
	return s, nil
}

// binaryErr reports what a record decoder made of a frame as a codec
// error.
func binaryErr(what string, d *store.Decoder) error {
	if err := d.End(); err != nil {
		return fmt.Errorf("%w: %s: %v", errCodec, what, err)
	}
	return nil
}

// decodeHeader reads the header frame — everything about the snapshot but
// its records — into s, refusing any schema but SchemaV2.
func decodeHeader(payload []byte, s *Snapshot) error {
	d := store.NewDecoder(payload)
	if schema := d.Uvarint(); schema != SchemaV2 {
		if len(payload) > 0 && payload[0] == '{' {
			return fmt.Errorf("%w: a JSON header (schema 1)", ErrSchema)
		}
		return fmt.Errorf("%w: schema %d", ErrSchema, schema)
	}
	s.Epoch, s.Since, s.NextSeq = d.Uvarint(), d.Uvarint(), d.Uvarint()
	s.ConnsIngested, s.CertsIngested = d.Uvarint(), d.Uvarint()
	s.Watermark, s.Retention = d.Time(), time.Duration(d.Varint())
	return binaryErr("header", d)
}

func decodeEvidence(payload []byte) (*interception.Evidence, error) {
	d := store.NewDecoder(payload)
	if !d.Bool() {
		return nil, binaryErr("evidence", d)
	}
	pending, pairs := d.Uvarint(), d.Pairs()
	if err := binaryErr("evidence", d); err != nil {
		return nil, err
	}
	if !slices.IsSortedFunc(pairs, strictlyBefore) {
		return nil, fmt.Errorf("%w: evidence pairs out of canonical order", errCodec)
	}
	ev := interception.EvidenceOf(pairs)
	if ev.Pending = int(pending); ev.Pending < 0 {
		return nil, fmt.Errorf("%w: negative pending count", errCodec)
	}
	return ev, nil
}

// strictlyBefore compares pairs so that only a strictly ascending list —
// canonical order, nothing twice — counts as sorted.
func strictlyBefore(a, b interception.Pair) int {
	if c := interception.ComparePairs(a, b); c != 0 {
		return c
	}
	return 1
}

func decodeTrailer(payload []byte) (*trailer, error) {
	tr := &trailer{}
	d := store.NewDecoder(payload)
	if tr.Certs, tr.Conns = int(d.Uvarint()), int(d.Uvarint()); tr.Certs < 0 || tr.Conns < 0 {
		return nil, fmt.Errorf("%w: trailer counts out of range", errCodec)
	}
	return tr, binaryErr("trailer", d)
}

// readFrame reads the next frame into buf's storage, grown when the frame
// needs more; the payload is valid until that storage is handed to
// another call.
func readFrame(br *byteReader, buf []byte) (byte, []byte, error) {
	typ, err := br.ReadByte()
	if err != nil {
		return 0, nil, fmt.Errorf("%w: frame type: %v", errCodec, err)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: frame length: %v", errCodec, err)
	}
	if n > maxFrame {
		return 0, nil, fmt.Errorf("%w: frame length %d exceeds %d", errCodec, n, maxFrame)
	}
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame: %v", errCodec, err)
	}
	return typ, buf, nil
}

// byteReader adapts an io.Reader for binary.ReadUvarint without
// buffering past frame boundaries.
type byteReader struct {
	r   io.Reader
	one [1]byte
}

func (b *byteReader) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *byteReader) ReadByte() (byte, error) {
	if _, err := io.ReadFull(b.r, b.one[:]); err != nil {
		return 0, err
	}
	return b.one[0], nil
}
