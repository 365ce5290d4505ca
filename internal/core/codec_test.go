package core

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	buf := make([]byte, 16)
	w := NewBitWriter(buf)
	w.Write(0x5, 3)
	w.Write(0xABCD, 16)
	w.Write(0x1, 1)
	w.Write(0xFFFFFFFFFF, 40)
	if w.Pos() != 60 {
		t.Fatalf("writer pos = %d, want 60", w.Pos())
	}

	r := NewBitReader(buf)
	if got := r.Read(3); got != 0x5 {
		t.Errorf("field 1 = %#x", got)
	}
	if got := r.Read(16); got != 0xABCD {
		t.Errorf("field 2 = %#x", got)
	}
	if got := r.Read(1); got != 1 {
		t.Errorf("field 3 = %#x", got)
	}
	if got := r.Read(40); got != 0xFFFFFFFFFF {
		t.Errorf("field 4 = %#x", got)
	}
	if r.Pos() != 60 {
		t.Errorf("reader pos = %d", r.Pos())
	}
}

// TestBitFieldsQuick: arbitrary (value, width) sequences round-trip through
// the packed representation.
func TestBitFieldsQuick(t *testing.T) {
	fn := func(vals []uint64, widths []uint8) bool {
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		if n > 20 {
			n = 20
		}
		buf := make([]byte, 8*20+8)
		w := NewBitWriter(buf)
		fields := make([]struct {
			v     uint64
			width uint
		}, 0, n)
		for i := 0; i < n; i++ {
			width := uint(widths[i]%64) + 1
			v := vals[i] & (1<<width - 1)
			w.Write(v, width)
			fields = append(fields, struct {
				v     uint64
				width uint
			}{v, width})
		}
		r := NewBitReader(buf)
		for _, f := range fields {
			if got := r.Read(f.width); got != f.v {
				t.Logf("width %d: wrote %#x read %#x", f.width, f.v, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBitWriterZeroBuffer(t *testing.T) {
	buf := make([]byte, 2)
	w := NewBitWriter(buf)
	w.Write(0, 16) // writing zeros must leave the buffer zero
	for _, b := range buf {
		if b != 0 {
			t.Fatal("zero write dirtied buffer")
		}
	}
}

// serialWrite and serialRead are the original bit-at-a-time field loops,
// kept as the oracle the word-level BitWriter and BitReader must match.
func serialWrite(buf []byte, pos uint, v uint64, n uint) {
	for i := uint(0); i < n; i++ {
		if v&(1<<i) != 0 {
			buf[pos>>3] |= 1 << (pos & 7)
		}
		pos++
	}
}

func serialRead(buf []byte, pos, n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		if buf[pos>>3]&(1<<(pos&7)) != 0 {
			v |= 1 << i
		}
		pos++
	}
	return v
}

// TestBitFieldsMatchSerialOracle writes and reads random fields at random
// offsets in 64- and 16-byte buffers holding random bytes, and checks every
// result against the bit-serial loops. Each round packs the buffer from a
// random start bit up to its last bit, so fields straddle the 8-byte load
// window and the buffer tail. Widths cover 0 and 64, and values carry
// garbage above the field width.
func TestBitFieldsMatchSerialOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, size := range []int{64, 16} {
		bits := uint(size * 8)
		for round := 0; round < 2000; round++ {
			init := make([]byte, size)
			for i := range init {
				init[i] = byte(rng.Uint32())
			}
			got := append([]byte(nil), init...)
			want := append([]byte(nil), init...)

			start := uint(rng.IntN(int(bits)))
			w := &BitWriter{buf: got, pos: start}
			r := &BitReader{buf: init, pos: start}
			for pos := start; pos < bits; {
				n := uint(rng.IntN(65))
				if rng.IntN(4) == 0 || n > bits-pos {
					n = bits - pos // end the field on the buffer's last bit
					if n > 64 {
						n = 64
					}
				}
				v := rng.Uint64() // garbage above bit n
				w.Write(v, n)
				serialWrite(want, pos, v, n)
				if rv, sv := r.Read(n), serialRead(init, pos, n); rv != sv {
					t.Fatalf("size %d: Read(%d) at bit %d = %#x, serial oracle %#x", size, n, pos, rv, sv)
				}
				pos += n
				if w.Pos() != pos || r.Pos() != pos {
					t.Fatalf("size %d: cursors at %d/%d, want %d", size, w.Pos(), r.Pos(), pos)
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d from bit %d: Write produced\n%x\nserial oracle\n%x", size, start, got, want)
			}
		}
	}
}

func TestBitFieldEdgeWidths(t *testing.T) {
	buf := make([]byte, 16)
	w := NewBitWriter(buf)
	w.Write(^uint64(0), 0) // n == 0 writes nothing and keeps the cursor
	w.Write(0xFF, 3)       // only the low 3 bits land
	w.Write(0x8000000000000001, 64)
	if w.Pos() != 67 {
		t.Fatalf("writer pos = %d, want 67", w.Pos())
	}
	want := make([]byte, 16)
	serialWrite(want, 0, 0x7, 3)
	serialWrite(want, 3, 0x8000000000000001, 64)
	if !bytes.Equal(buf, want) {
		t.Fatalf("buffer %x, want %x", buf, want)
	}
	r := NewBitReader(buf)
	if v := r.Read(0); v != 0 || r.Pos() != 0 {
		t.Errorf("Read(0) = %#x at pos %d, want 0 at 0", v, r.Pos())
	}
	if v := r.Read(3); v != 0x7 {
		t.Errorf("Read(3) = %#x, want 0x7", v)
	}
	if v := r.Read(64); v != 0x8000000000000001 {
		t.Errorf("Read(64) = %#x", v)
	}
}

// TestBitFieldPastEndPanics: a field that runs past the buffer's length
// panics with an index error, even when the slice's capacity extends
// further (a PVTable block is a window into one larger backing array).
func TestBitFieldPastEndPanics(t *testing.T) {
	backing := make([]byte, 32)
	for _, tc := range []struct{ pos, n uint }{{120, 9}, {128, 1}, {100, 64}, {121, 8}} {
		buf := backing[:16]
		mustPanic(t, "Read", func() { (&BitReader{buf: buf, pos: tc.pos}).Read(tc.n) })
		mustPanic(t, "Write", func() { (&BitWriter{buf: buf, pos: tc.pos}).Write(1, tc.n) })
	}
	if !bytes.Equal(backing, make([]byte, 32)) {
		t.Errorf("failed writes touched the backing array: %x", backing)
	}
	// Reading or writing exactly up to the last bit does not panic.
	(&BitReader{buf: backing[:16], pos: 64}).Read(64)
	(&BitWriter{buf: backing[:16], pos: 127}).Write(1, 1)
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("%s past the end did not panic", what)
			return
		}
		if err, ok := r.(runtime.Error); !ok || !strings.Contains(err.Error(), "index out of range") {
			t.Errorf("%s past the end panicked with %v, want an index error", what, r)
		}
	}()
	fn()
}
