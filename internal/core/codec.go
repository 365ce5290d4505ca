package core

import "encoding/binary"

// Codec converts between the decoded form S of one predictor set and the
// packed bytes stored in the memory system. Implementations must satisfy
// two laws, which the property tests in this package check for every codec
// the repository ships:
//
//  1. Round trip: Unpack(Pack(s)) is semantically equal to s.
//  2. Zero is empty: Unpack(make([]byte, BlockBytes())) is an empty set
//     (no valid entries). This makes an untouched PVTable slot read back
//     as "predictor miss", matching hardware that never initializes the
//     reserved physical range.
type Codec[S any] interface {
	// BlockBytes is the packed size; it must equal the memory system's
	// cache block size so one request moves one predictor set.
	BlockBytes() int

	// Pack serializes s into dst, which has exactly BlockBytes bytes and
	// arrives zeroed.
	Pack(s S, dst []byte)

	// Unpack deserializes a packed set.
	Unpack(src []byte) S

	// UnpackInto deserializes a packed set into dst, reusing dst's backing
	// storage (slices, buffers) when it is already the right shape. It must
	// leave dst semantically equal to Unpack(src) regardless of dst's prior
	// contents; the PVProxy uses it to refill PVCache entries without
	// allocating on the simulation hot path.
	UnpackInto(src []byte, dst *S)
}

// BitWriter packs bit fields little-endian-within-bytes into a byte slice;
// predictor codecs use it to lay entries out exactly as Figure 3a does
// (11 entries x 43 bits leaves trailing unused bits in a 64-byte block).
type BitWriter struct {
	buf []byte
	pos uint // bit cursor
}

// NewBitWriter wraps buf, starting at bit 0.
func NewBitWriter(buf []byte) *BitWriter { return &BitWriter{buf: buf} }

// Write appends the low n bits of v (n <= 64) at the cursor, ORing them
// into the buffer a word at a time; bits of v at or above n are ignored. A
// field running past the end of the buffer panics with an index error.
func (w *BitWriter) Write(v uint64, n uint) {
	if n == 0 {
		return
	}
	i, sh, last := w.pos>>3, w.pos&7, (w.pos+n-1)>>3
	_ = w.buf[last]
	w.pos += n
	// For n == 64 the shift yields 0, so the mask keeps every bit. Under 8
	// bytes from the end, sh+n <= 56 and v<<sh loses nothing.
	v &= 1<<n - 1
	if i+8 > uint(len(w.buf)) {
		for v <<= sh; i <= last; i, v = i+1, v>>8 {
			w.buf[i] |= byte(v)
		}
		return
	}
	binary.LittleEndian.PutUint64(w.buf[i:], binary.LittleEndian.Uint64(w.buf[i:])|v<<sh)
	if last > i+7 {
		w.buf[last] |= byte(v >> (64 - sh))
	}
}

// Pos returns the bit cursor.
func (w *BitWriter) Pos() uint { return w.pos }

// BitReader is the matching reader for BitWriter.
type BitReader struct {
	buf []byte
	pos uint
}

// NewBitReader wraps buf, starting at bit 0.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// Read consumes n bits (n <= 64) and returns them in the low bits: one
// little-endian 8-byte load at the cursor, plus the next byte for a field
// that straddles it, or a gather of the bytes left near the end of the
// buffer. A field running past the end panics with an index error.
func (r *BitReader) Read(n uint) uint64 {
	if n == 0 {
		return 0
	}
	i, sh, last := r.pos>>3, r.pos&7, (r.pos+n-1)>>3
	_ = r.buf[last]
	r.pos += n
	var v uint64
	if i+8 > uint(len(r.buf)) {
		for k := last + 1; k > i; k-- {
			v = v<<8 | uint64(r.buf[k-1])
		}
		v >>= sh
	} else {
		v = binary.LittleEndian.Uint64(r.buf[i:]) >> sh
		if last > i+7 {
			v |= uint64(r.buf[last]) << (64 - sh)
		}
	}
	return v & (1<<n - 1)
}

// Pos returns the bit cursor.
func (r *BitReader) Pos() uint { return r.pos }
