package mem

import (
	"encoding/binary"
	"testing"
)

// FuzzCowRestore feeds an op byte-string through the differential twin
// interpreter (see differential_test.go): the same decoded op sequence
// runs against a deep-copy-checkpointing twin and a COW-checkpointing
// twin, and any observable divergence — bytes, diffs, errors, perms —
// fails the target. The byte decoding is total: every input is a valid
// program, so the fuzzer spends its budget on semantics, not parsing.

// fuzzLayout is the fixed two-segment map fuzz programs run against:
// sizes chosen so one segment has a partial tail page and the other
// fits in a single page.
var fuzzLayout = dsLayout{
	kinds: []SegKind{SegData, SegHeap},
	bases: []Addr{0x1000, 0x100000},
	sizes: []uint64{PageSize + PageSize/2, PageSize / 2},
}

// decodeFuzzOps interprets data as an op program. Layout: repeated
// records of [opcode u8][seg u8][off u16][aux u16][fill u8]; truncated
// tails decode as zeroes. Offsets reach one page past a segment end so
// fault parity is fuzzed too, and a scalar read checks the disarmed
// read against the observed one on each twin.
func decodeFuzzOps(data []byte) []dsOp {
	const rec = 7
	var ops []dsOp
	for i := 0; i+1 <= len(data) && len(ops) < 64; i += rec {
		chunk := make([]byte, rec)
		copy(chunk, data[i:min(i+rec, len(data))])
		seg := int(chunk[1]) % len(fuzzLayout.kinds)
		size := fuzzLayout.sizes[seg]
		off := uint64(binary.LittleEndian.Uint16(chunk[2:4])) % (size + PageSize)
		aux := uint64(binary.LittleEndian.Uint16(chunk[4:6]))
		fill := chunk[6]
		op := dsOp{Seg: seg, Off: off, Fill: fill}
		switch chunk[0] % 10 {
		case 0:
			op.Kind = "write"
			op.Data = fuzzPayload(fill, aux%(PageSize+3))
		case 1:
			op.Kind = "poke"
			op.Data = fuzzPayload(fill, aux%(PageSize+3))
		case 2:
			op.Kind = "memset"
			op.Len = aux % (2 * PageSize)
		case 3:
			op.Kind = "strncpy"
			op.Len = aux % 512
			n := op.Len
			if n > 64 {
				n = 64
			}
			op.Str = string(fuzzPayload(fill|1, n)) // |1: never NUL source bytes
		case 4:
			op.Kind = "wcstring"
			op.Str = string(fuzzPayload(fill|1, aux%128))
		case 5:
			op.Kind = "protect"
			op.Perm = []Perm{PermRead, PermRW, PermRWX, PermWrite}[int(fill)%4]
		case 6:
			op.Kind = "checkpoint"
		case 7:
			op.Kind = "restore"
		case 8:
			op.Kind = "diff"
		case 9:
			op.Kind = "read"
			op.Len = []uint64{1, 2, 4, 8}[int(fill)%4]
		}
		ops = append(ops, op)
	}
	// Force the interesting tail every run: snapshot state, dirty it,
	// compare, roll back.
	return append(ops,
		dsOp{Kind: "checkpoint"},
		dsOp{Kind: "memset", Seg: 0, Off: 0, Len: PageSize, Fill: 0x5A},
		dsOp{Kind: "diff"},
		dsOp{Kind: "restore"},
		dsOp{Kind: "diff"},
	)
}

func fuzzPayload(seed byte, n uint64) []byte {
	b := make([]byte, n)
	x := uint32(seed)*2654435761 + 1
	for i := range b {
		x = x*1664525 + 1013904223
		b[i] = byte(x >> 24)
	}
	return b
}

func FuzzCowRestore(f *testing.F) {
	// Seed corpus: empty program (tail ops only), a page-straddling
	// write + restore, a checkpoint tower with interleaved memsets, and
	// out-of-range + perm-revoked writes.
	f.Add([]byte{})
	f.Add([]byte{
		0, 0, 0xFF, 0x0F, 16, 0, 0xAB, // write data +0xFFF len 16 (straddles)
		6, 0, 0, 0, 0, 0, 0, // checkpoint
		2, 1, 0, 0, 0xFF, 0x01, 0x11, // memset heap
		7, 0, 0, 0, 0, 0, 0, // restore
	})
	f.Add([]byte{
		6, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 0, 0x00, 0x10, 0x22,
		6, 0, 0, 0, 0, 0, 0,
		2, 0, 0, 8, 0x00, 0x08, 0x33,
		8, 0, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0,
		7, 0, 0, 0, 0, 0, 0, // restore-after-restore
	})
	f.Add([]byte{
		5, 0, 0, 0, 0, 0, 0, // protect data r--
		0, 0, 5, 0, 8, 0, 0x44, // write into read-only: must fault on both
		1, 0, 5, 0, 8, 0, 0x55, // poke bypasses perm on both
		0, 1, 0xFF, 0xFF, 4, 0, 0x66, // far out of range: fault parity
	})
	f.Add([]byte{
		0, 0, 0xF8, 0x0F, 16, 0, 0x77, // write data +0xFF8 len 16 (straddles)
		9, 0, 0xFE, 0x0F, 0, 0, 0x02, // read u32 across the page boundary
		9, 0, 0xFF, 0x17, 0, 0, 0x00, // read u8 at the data segment's last byte
		9, 0, 0x00, 0x18, 0, 0, 0x00, // read u8 at the data segment's end
		9, 1, 0xFC, 0x07, 0, 0, 0x03, // read u64 across the heap's end
		5, 1, 0, 0, 0, 0, 0x03, // protect heap -w-
		9, 1, 0x10, 0x00, 0, 0, 0x02, // read u32 from a write-only segment
	})

	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzOps(data)
		if d := runScenario(t, fuzzLayout, ops); d != "" {
			t.Fatalf("deep/cow divergence: %s", d)
		}
	})
}
