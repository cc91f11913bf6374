package paradet

import (
	"math"
	"testing"
)

func TestLockstepHasNegligibleOverheadAndTinyDelay(t *testing.T) {
	p := MustAssemble(sumLoop)
	big := smallConfig()
	big.BigCore = true
	for name, cfg := range map[string]Config{"tableI": smallConfig(), "bigcore": big} {
		t.Run(name, func(t *testing.T) {
			base, err := RunUnprotected(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			ls, err := RunLockstep(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if ls.Detected {
				t.Fatalf("fault-free lockstep diverged: %s", ls.DetectInfo)
			}
			// Figure 1(d): lockstep performance overhead is negligible,
			// on whichever main core the baseline runs.
			if ls.TimeNS > base.TimeNS*1.01 {
				t.Errorf("lockstep slowdown %.4f, want ~1.0", ls.TimeNS/base.TimeNS)
			}
			// Detection within a few cycles (sub-10ns at 3.2 GHz), far
			// below the parallel scheme's hundreds of ns.
			if ls.MeanDelayNS <= 0 || ls.MeanDelayNS > 10 {
				t.Errorf("lockstep mean delay %.2f ns, want a few cycles", ls.MeanDelayNS)
			}
		})
	}
}

func TestLockstepDetectsInjectedFault(t *testing.T) {
	p := MustAssemble(faultKernel)
	cfg := faultConfig()
	ls, err := RunLockstep(cfg, p, []Fault{{Target: FaultStoreValue, Seq: 40, Bit: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Detected {
		t.Fatal("lockstep missed a store-value fault")
	}
}

func TestRMTHasLargeOverheadButSameAnswer(t *testing.T) {
	p, _, err := LoadWorkload("bitcount")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInstrs = 15000
	base, err := RunUnprotected(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunRMT(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Detected {
		t.Fatalf("fault-free RMT diverged: %s", r.DetectInfo)
	}
	slow := r.TimeNS / base.TimeNS
	// Figure 1(d): RMT performance overhead is large. Mukherjee et al.
	// report ~32%; for a compute-bound kernel saturating the window,
	// duplication must cost at least ~25%.
	if slow < 1.25 {
		t.Errorf("RMT slowdown %.3f on compute-bound code, want >= 1.25", slow)
	}
	if slow > 2.3 {
		t.Errorf("RMT slowdown %.3f exceeds full duplication bound", slow)
	}
	if r.Instructions != base.Instructions {
		t.Errorf("RMT reports %d program instructions, baseline %d", r.Instructions, base.Instructions)
	}
}

func TestParadetOutperformsRMTAndUndercutsLockstepArea(t *testing.T) {
	// The Fig. 1(d) triangle: paradet must beat RMT on performance and
	// lockstep on area/power.
	p, _, err := LoadWorkload("swaptions")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInstrs = 15000
	slow, _, _, err := Slowdown(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunRMT(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunUnprotected(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rmtSlow := r.TimeNS / base.TimeNS
	if slow >= rmtSlow {
		t.Errorf("paradet slowdown %.3f not below RMT %.3f", slow, rmtSlow)
	}

	ap := AreaPower(cfg)
	ls := AreaPowerLockstep(cfg)
	if ap.AreaOverhead >= ls.AreaOverhead {
		t.Errorf("paradet area overhead %.2f not below lockstep %.2f", ap.AreaOverhead, ls.AreaOverhead)
	}
	if ap.PowerOverhead >= ls.PowerOverhead {
		t.Errorf("paradet power overhead %.2f not below lockstep %.2f", ap.PowerOverhead, ls.PowerOverhead)
	}
}

func TestAreaPowerMatchesPaperNumbers(t *testing.T) {
	// §VI-B: "approximately 24% area overhead compared to the original
	// core without shared caches", "approximately 16%" with the L2.
	// §VI-C: "power overhead of approximately 16%".
	ap := AreaPower(DefaultConfig())
	if math.Abs(ap.AreaOverhead-0.24) > 0.03 {
		t.Errorf("area overhead %.3f, paper says ~0.24", ap.AreaOverhead)
	}
	if math.Abs(ap.AreaOverheadWithL2-0.16) > 0.03 {
		t.Errorf("area overhead with L2 %.3f, paper says ~0.16", ap.AreaOverheadWithL2)
	}
	if math.Abs(ap.PowerOverhead-0.16) > 0.03 {
		t.Errorf("power overhead %.3f, paper says ~0.16", ap.PowerOverhead)
	}
	// Lockstep doubles both.
	ls := AreaPowerLockstep(DefaultConfig())
	if ls.AreaOverhead != 1.0 || ls.PowerOverhead != 1.0 {
		t.Errorf("lockstep overheads %.2f/%.2f, want 1.0/1.0", ls.AreaOverhead, ls.PowerOverhead)
	}
	// RMT: small area, large power.
	rm := AreaPowerRMT(DefaultConfig(), 2.0)
	if rm.AreaOverhead > 0.1 {
		t.Errorf("RMT area overhead %.3f, want small", rm.AreaOverhead)
	}
	if rm.PowerOverhead < 0.5 {
		t.Errorf("RMT power overhead %.3f, want large", rm.PowerOverhead)
	}
}
