package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"pvsim/internal/btb"
	"pvsim/internal/core"
	"pvsim/internal/sms"
	"pvsim/internal/stride"
)

// repeat returns fields repeated ways times, followed by a 4-bit cursor:
// the packing order every shipped set codec uses.
func repeat(ways int, fields ...uint) []uint {
	var l []uint
	for i := 0; i < ways; i++ {
		l = append(l, fields...)
	}
	return append(l, 4)
}

// checkSetCodec decodes block, packs the decoded set and decodes the
// packed bytes again, into a set that already holds another decode. The
// two decoded sets must be equal, and the packed bytes must equal the
// bit-serial oracle's copy of every field of layout from block into a
// zeroed block.
func checkSetCodec[S any](t *testing.T, c core.Codec[S], layout []uint, block []byte) {
	t.Helper()
	var first, second S
	c.UnpackInto(block, &first)
	packed := make([]byte, c.BlockBytes())
	c.Pack(first, packed)
	flipped := make([]byte, len(block))
	for i, b := range block {
		flipped[i] = ^b
	}
	c.UnpackInto(flipped, &second)
	c.UnpackInto(packed, &second)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("decode(pack(decode(block))) = %+v, decode(block) = %+v", second, first)
	}
	want := make([]byte, len(block))
	pos := uint(0)
	for _, n := range layout {
		core.SerialWrite(want, pos, core.SerialRead(block, pos, n), n)
		pos += n
	}
	if !bytes.Equal(packed, want) {
		t.Fatalf("pack(decode(block)) =\n%x\nbit-serial oracle repack =\n%x", packed, want)
	}
}

// FuzzSetCodec runs the SMS (the paper's 11 x 43-bit layout), stride and
// BTB set codecs over arbitrary 64-byte blocks.
func FuzzSetCodec(f *testing.F) {
	vcfg := sms.DefaultVPHTConfig(0)
	smsCodec, err := sms.NewSetCodec(vcfg.Ways, vcfg.TagBits(), uint(vcfg.Geom.RegionBlocks), vcfg.BlockBytes)
	if err != nil {
		f.Fatal(err)
	}
	scfg := stride.DefaultConfig(256)
	strideCodec, err := stride.NewSetCodec(scfg, 64)
	if err != nil {
		f.Fatal(err)
	}
	bcfg := btb.DefaultConfig(1024)
	btbCodec, err := btb.NewSetCodec(bcfg, 64)
	if err != nil {
		f.Fatal(err)
	}
	smsLayout := repeat(smsCodec.Ways, smsCodec.TagBits, smsCodec.PatternBits)
	strideLayout := repeat(scfg.Ways, 1, scfg.TagBits, 32, 8, 2)
	btbLayout := repeat(bcfg.Ways, 1, bcfg.TagBits, bcfg.TargetBits)

	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(bytes.Repeat([]byte{0xA5, 0x3C, 0x01}, 22))
	f.Fuzz(func(t *testing.T, data []byte) {
		block := make([]byte, 64)
		copy(block, data)
		checkSetCodec[sms.PHTSet](t, smsCodec, smsLayout, block)
		checkSetCodec[stride.Set](t, strideCodec, strideLayout, block)
		checkSetCodec[btb.Set](t, btbCodec, btbLayout, block)
	})
}
