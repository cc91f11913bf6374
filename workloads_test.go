package paradet

import (
	"sync"
	"testing"
)

func TestWorkloadsAssembleAndRun(t *testing.T) {
	infos := Workloads()
	if len(infos) != 9 {
		t.Fatalf("have %d workloads, want the paper's 9", len(infos))
	}
	cfg := smallConfig()
	cfg.MaxInstrs = 8000
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			p, got, err := LoadWorkload(info.Name)
			if err != nil {
				t.Fatal(err)
			}
			if got.Name != info.Name || got.Description == "" || got.Class == "" {
				t.Errorf("metadata incomplete: %+v", got)
			}
			res, err := Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			if res.FirstError != nil {
				t.Fatalf("fault-free %s flagged error: %+v", info.Name, res.FirstError)
			}
			if res.Instructions < 7000 {
				t.Errorf("%s retired only %d instructions under an 8000 budget",
					info.Name, res.Instructions)
			}
			if res.SegmentsChecked == 0 {
				t.Errorf("%s validated no segments", info.Name)
			}
			// Compute-only kernels may log nothing in a short sample; in
			// that case segments must still seal via the instruction
			// timeout (§IV-J).
			if res.Delay.Samples == 0 && res.SealsByReason["timeout"] == 0 &&
				res.SealsByReason["finish"] == 0 {
				t.Errorf("%s: no delays and no timeout seals: %+v", info.Name, res.SealsByReason)
			}
		})
	}
}

func TestWorkloadClassesSpanTheSpace(t *testing.T) {
	// The paper chose benchmarks spanning memory-bound (irregular and
	// regular) to compute-bound extremes (§V); our kernels must too.
	classes := map[string]bool{}
	for _, w := range Workloads() {
		classes[w.Class] = true
	}
	for _, want := range []string{"memory-irregular", "memory-regular", "compute-int", "compute-fp"} {
		if !classes[want] {
			t.Errorf("no workload of class %q", want)
		}
	}
}

func TestWorkloadIPCContrast(t *testing.T) {
	// randacc (dependent random misses) must run at far lower IPC than
	// bitcount (pure compute) — this contrast drives the shapes of paper
	// Figs. 8-12.
	cfg := DefaultConfig()
	cfg.MaxInstrs = 20000
	ipc := func(name string) float64 {
		p, _, err := LoadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunUnprotected(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	ra, bc := ipc("randacc"), ipc("bitcount")
	t.Logf("IPC: randacc=%.3f bitcount=%.3f", ra, bc)
	if ra*2 >= bc {
		t.Errorf("randacc IPC %.3f not clearly below bitcount %.3f", ra, bc)
	}
}

func TestLoadWorkloadUnknown(t *testing.T) {
	if _, _, err := LoadWorkload("no-such-kernel"); err == nil {
		t.Fatal("unknown workload must error")
	}
}

// TestLoadWorkloadSharesProgram checks that each kernel is assembled
// once per process: every load returns the same read-only isa.Program,
// also when eight goroutines load (and run) all nine kernels at once.
// CI runs it under -race.
func TestLoadWorkloadSharesProgram(t *testing.T) {
	names := make([]string, 0, len(Workloads()))
	for _, w := range Workloads() {
		names = append(names, w.Name)
	}
	cfg := smallConfig()
	cfg.MaxInstrs = 300
	const goroutines = 8
	progs := make([][]*Program, goroutines)
	var wg sync.WaitGroup
	for g := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range names {
				p, _, err := LoadWorkload(name)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := Run(cfg, p); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				progs[g] = append(progs[g], p)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, name := range names {
		p, _, err := LoadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		again, _, err := LoadWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.prog != again.prog {
			t.Errorf("%s: two loads assembled two programs", name)
		}
		for g := range progs {
			if progs[g][i].prog != p.prog {
				t.Errorf("%s: goroutine %d's load assembled its own program", name, g)
			}
		}
	}
}
