package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"paradet/internal/isa"
	"paradet/internal/sim"
)

// TestConfirmationIsOrderInsensitive is a property test on the strong-
// induction protocol: whatever order segment results arrive in, the
// confirmed first error is always the lowest-numbered failing segment.
func TestConfirmationIsOrderInsensitive(t *testing.T) {
	f := func(seed int64, nSeg uint8, failMask uint16) bool {
		n := 2 + int(nSeg%10)
		r := rand.New(rand.NewSource(seed))
		// Only the confirmation path is exercised; no checkers needed.
		d := New(testConfig(4), isa.ArchRegs{})
		d.segSeq = uint64(n)

		var wantFirst uint64
		for i := 1; i <= n; i++ {
			if failMask&(1<<uint(i%16)) != 0 {
				wantFirst = uint64(i)
				break
			}
		}
		for _, idx := range r.Perm(n) {
			no := uint64(idx + 1)
			seg := &Segment{SeqNo: no, State: SegChecking}
			res := CheckResult{OK: true}
			if failMask&(1<<uint(int(no)%16)) != 0 {
				res = CheckResult{OK: false, Err: &ErrorReport{
					Kind: ErrStoreValue, SegSeqNo: no, DetectedAt: sim.Time(no),
				}}
			}
			d.SegmentChecked(seg, res)
		}
		fe := d.FirstError()
		if wantFirst == 0 {
			return fe == nil
		}
		return fe != nil && fe.Confirmed && fe.SegSeqNo == wantFirst
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
