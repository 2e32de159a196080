package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Segment files — the disk store's spill segments and the incremental
// checkpoint's delta/base segments — are sequences of self-contained
// frames:
//
//	[1 byte type][4 bytes little-endian payload length][payload][4 bytes CRC32]
//
// The CRC (IEEE, over type+length+payload) makes torn or bit-rotted
// frames detectable: a reader hitting a short or mismatched frame gets
// ErrCorrupt, never a silent half-read. Payloads are opaque here —
// callers encode theirs with the record codec beside this file
// (record.go), each frame on its own so frames decode independently
// (random access into spill segments, and a truncated tail cannot poison
// earlier frames). Writers build a frame in place in a buffer they reuse
// — BeginFrame, the payload appended, EndFrame — and hand the file one
// Write; readers lend ReadFrame the buffer the payload lands in.

// ErrCorrupt marks a frame that is truncated or fails its checksum, or a
// payload the record codec cannot decode.
var ErrCorrupt = errors.New("store: corrupt segment frame")

// frameHeader is the fixed bytes ahead of a payload: type and length.
const frameHeader = 1 + 4

// maxFramePayload bounds a single frame; a length prefix beyond it is
// treated as corruption rather than attempted as an allocation.
const maxFramePayload = 1 << 30

// BeginFrame opens a frame of type typ at the end of dst. The caller
// appends the payload and closes the frame with EndFrame, passing the
// length dst had before BeginFrame.
func BeginFrame(dst []byte, typ byte) []byte {
	return append(dst, typ, 0, 0, 0, 0)
}

// EndFrame closes the frame BeginFrame opened at dst[start:]: the payload
// length goes into the header and the checksum behind the payload.
func EndFrame(dst []byte, start int) ([]byte, error) {
	n := len(dst) - start - frameHeader
	if n > maxFramePayload {
		return dst[:start], fmt.Errorf("store: frame payload %d exceeds limit", n)
	}
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(n))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), nil
}

// ReadFrame reads the next frame from r into buf's storage, grown when
// the frame needs more, and returns the payload — valid until the caller
// hands the same storage to another call (pass payload[:0] back to reuse
// it, nil for a fresh slice). A clean end of file returns io.EOF; anything
// short or checksum-mismatched returns ErrCorrupt.
func ReadFrame(r io.Reader, buf []byte) (typ byte, payload []byte, err error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	n := int(binary.LittleEndian.Uint32(hdr[1:]))
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, n)
	}
	// Payload and checksum arrive in one read.
	if cap(buf) < n+4 {
		buf = make([]byte, n+4)
	}
	buf = buf[:n+4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, fmt.Errorf("%w: short payload", ErrCorrupt)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(hdr[:]), crc32.IEEETable, buf[:n])
	if sum != binary.LittleEndian.Uint32(buf[n:]) {
		return 0, nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return hdr[0], buf[:n], nil
}
