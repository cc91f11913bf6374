package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"paradet/internal/sim"
)

// ns converts a sample in nanoseconds to the duration Hist records.
func ns(v float64) sim.Time { return sim.Time(v * float64(sim.Nanosecond)) }

func TestHistBasics(t *testing.T) {
	h := NewHist(10, 100) // 0-1000 in 10-unit bins
	for _, v := range []float64{5, 15, 15, 995} {
		h.Add(ns(v))
	}
	if h.Count() != 4 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Mean(); math.Abs(got-257.5) > 1e-9 {
		t.Errorf("mean = %v, want 257.5", got)
	}
	if h.Max() != 995 || h.Min() != 5 {
		t.Errorf("max/min = %v/%v", h.Max(), h.Min())
	}
}

func TestHistOverflowKeepsExactTail(t *testing.T) {
	h := NewHist(1, 10)
	h.Add(ns(5))
	h.Add(ns(12345)) // beyond binned range
	if h.Max() != 12345 {
		t.Errorf("max = %v; overflow must stay exact", h.Max())
	}
	if got := h.Quantile(1); got != 12345 {
		t.Errorf("q1 = %v", got)
	}
}

func TestQuantiles(t *testing.T) {
	h := NewHist(1, 1000)
	for i := 1; i <= 1000; i++ {
		h.Add(ns(float64(i)))
	}
	if q := h.Quantile(0.5); math.Abs(q-500) > 2 {
		t.Errorf("median = %v", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-990) > 2 {
		t.Errorf("p99 = %v", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
}

func TestFractionBelow(t *testing.T) {
	h := NewHist(1, 100)
	for i := 0; i < 100; i++ {
		h.Add(ns(float64(i)))
	}
	if f := h.FractionBelow(50); math.Abs(f-0.5) > 0.02 {
		t.Errorf("fraction below 50 = %v", f)
	}
	if f := h.FractionBelow(1000); f != 1 {
		t.Errorf("fraction below 1000 = %v", f)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	h := NewHist(5, 200)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Add(ns(math.Abs(r.NormFloat64())*100 + 200))
	}
	var integral float64
	for _, p := range h.Density() {
		integral += p.Density * 5
	}
	if math.Abs(integral-1) > 0.01 {
		t.Errorf("density integrates to %v, want ~1", integral)
	}
}

func TestSummary(t *testing.T) {
	h := NewHist(10, 1000)
	for i := 0; i < 1000; i++ {
		h.Add(ns(float64(i))) // 0..999, all below 5000
	}
	s := h.Summarize()
	if s.Count != 1000 || s.Below5000 != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.P999 < s.P99 || s.P99 < s.P50 {
		t.Errorf("quantiles must be ordered: %+v", s)
	}
}

// TestHistMeanMatchesDirectMean is a property test against a straight
// recomputation.
func TestHistMeanMatchesDirectMean(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHist(1, 64)
		var sum float64
		for _, v := range raw {
			x := float64(v % 5000)
			h.Add(ns(x))
			sum += x
		}
		want := sum / float64(len(raw))
		return math.Abs(h.Mean()-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHistOrderIndependent is a property test: a histogram's summary
// and density do not depend on the order in which samples arrive, even
// for durations whose nanosecond values are not dyadic fractions (here
// multiples of 3.2 ns, the period of a 312.5 MHz clock), whose float
// sums would round differently in different orders.
func TestHistOrderIndependent(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		samples := make([]sim.Time, len(raw))
		for i, v := range raw {
			samples[i] = sim.Time(v) * 3200 * sim.Picosecond
		}
		a := NewHist(50, 100)
		for _, d := range samples {
			a.Add(d)
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(samples), func(i, j int) {
			samples[i], samples[j] = samples[j], samples[i]
		})
		b := NewHist(50, 100)
		for _, d := range samples {
			b.Add(d)
		}
		if a.Summarize() != b.Summarize() {
			t.Logf("summaries differ: %+v vs %+v", a.Summarize(), b.Summarize())
			return false
		}
		da, db := a.Density(), b.Density()
		for i := range da {
			if da[i] != db[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
