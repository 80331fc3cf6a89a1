package mem

import "testing"

// benchMemory maps one RW data segment for the write-path benchmarks.
func benchMemory(b *testing.B) *Memory {
	b.Helper()
	m := &Memory{}
	if _, err := m.Map(SegData, 0x1000, 1<<16, PermRW); err != nil {
		b.Fatal(err)
	}
	return m
}

// benchWrites drives the checked write path over rotating offsets.
func benchWrites(b *testing.B, m *Memory) {
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := Addr(0x1000 + (i%4096)*16)
		if err := m.Write(addr, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteShadowDisabled pins the zero-cost-when-disabled
// contract of the ShadowChecker seam (see SetShadow): with no checker
// attached a write pays exactly one nil comparison. Compare against
// BenchmarkWriteShadowArmed to see the armed tax; the shadow package's
// TestWriteOverheadGate gates the same comparison with the real
// sanitizer.
func BenchmarkWriteShadowDisabled(b *testing.B) {
	benchWrites(b, benchMemory(b))
}

// shadowCheckerStub is an always-clean checker, standing in for the
// real sanitizer (internal/shadow, unimportable here) so the seam's
// call overhead is measurable in isolation.
type shadowCheckerStub struct{}

func (shadowCheckerStub) CheckWrite(Addr, uint64) *Fault { return nil }
func (shadowCheckerStub) Snapshot() any                  { return nil }
func (shadowCheckerStub) Restore(any)                    {}

// BenchmarkWriteShadowArmed measures the same write loop with a
// checker attached: the disabled/armed delta is the seam's dispatch
// cost, independent of the sanitizer's own lookup work.
func BenchmarkWriteShadowArmed(b *testing.B) {
	m := benchMemory(b)
	m.SetShadow(shadowCheckerStub{})
	benchWrites(b, m)
}
