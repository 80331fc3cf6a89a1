package attack

import "testing"

// TestSeizedLoopMatchesLiteralLoop holds dos-loop's closed form to the
// loop it replaces, across the validation boundary and n <= 0.
func TestSeizedLoopMatchesLiteralLoop(t *testing.T) {
	const baseline = 5
	for n := int64(-3); n <= 12; n++ {
		var wantIters int64
		wantValidated := false
		for i := int64(0); i < n; i++ {
			wantIters++
			if i == baseline-1 {
				wantValidated = true
			}
		}
		iters, validated := seizedLoop(n, baseline)
		if iters != wantIters || validated != wantValidated {
			t.Errorf("seizedLoop(%d) = (%d, %v), want (%d, %v)", n, iters, validated, wantIters, wantValidated)
		}
	}
}
