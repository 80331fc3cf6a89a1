package mem

import (
	"fmt"
	"strings"
)

// Snapshot captures the contents of a byte range for later comparison.
type Snapshot struct {
	Start Addr
	Data  []byte
}

// Snapshot copies [start, start+n) for later diffing. Unlike Read it
// ignores read permission so rodata and guard regions can be captured.
func (m *Memory) Snapshot(start Addr, n uint64) (*Snapshot, error) {
	s, f := m.seg(start, n)
	if f != nil {
		return nil, f
	}
	data := make([]byte, n)
	s.readRaw(uint64(start.Diff(s.Base)), data)
	return &Snapshot{Start: start, Data: data}, nil
}

// DiffRegion is a contiguous run of bytes that changed between a snapshot
// and the current memory contents.
type DiffRegion struct {
	Addr Addr
	Old  []byte
	New  []byte
}

// Diff compares the snapshot against current memory and returns the changed
// runs in ascending address order. Experiments use it to report exactly
// which victim bytes an overflow clobbered.
func (m *Memory) Diff(snap *Snapshot) ([]DiffRegion, error) {
	cur, err := m.Snapshot(snap.Start, uint64(len(snap.Data)))
	if err != nil {
		return nil, err
	}
	return diffBytes(snap.Start, snap.Data, cur.Data), nil
}

// diffBytes computes the changed runs between two equal-length byte
// images starting at base.
func diffBytes(base Addr, old, cur []byte) []DiffRegion {
	var out []DiffRegion
	i := 0
	for i < len(old) {
		if old[i] == cur[i] {
			i++
			continue
		}
		j := i
		for j < len(old) && old[j] != cur[j] {
			j++
		}
		out = append(out, DiffRegion{
			Addr: base.Add(int64(i)),
			Old:  append([]byte(nil), old[i:j]...),
			New:  append([]byte(nil), cur[i:j]...),
		})
		i = j
	}
	return out
}

// Hexdump renders [start, start+n) in the classic 16-bytes-per-line format
// with a printable-ASCII gutter. Unreadable ranges yield an error.
func (m *Memory) Hexdump(start Addr, n uint64) (string, error) {
	snap, err := m.Snapshot(start, n)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for off := 0; off < len(snap.Data); off += 16 {
		end := off + 16
		if end > len(snap.Data) {
			end = len(snap.Data)
		}
		line := snap.Data[off:end]
		fmt.Fprintf(&sb, "%08x  ", uint64(start.Add(int64(off))))
		for i := 0; i < 16; i++ {
			if i == 8 {
				sb.WriteByte(' ')
			}
			if i < len(line) {
				fmt.Fprintf(&sb, "%02x ", line[i])
			} else {
				sb.WriteString("   ")
			}
		}
		sb.WriteString(" |")
		for _, b := range line {
			if b >= 0x20 && b < 0x7f {
				sb.WriteByte(b)
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteString("|\n")
	}
	return sb.String(), nil
}
