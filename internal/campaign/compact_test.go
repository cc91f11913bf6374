package campaign

import (
	"context"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"

	"paradet"
	"paradet/internal/resultstore"
)

// looseCellCount counts loose cell files in a store directory.
func looseCellCount(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "cells"), func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestAssembleOverCompactedStore is the acceptance criterion for the
// compaction subsystem at the campaign layer: compacting a store and
// then re-running the spec against it must reproduce the original
// outcome with zero simulations — every cell and reference run served
// through the packed segment read path.
func TestAssembleOverCompactedStore(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(2)

	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := ExecuteContext(context.Background(), spec, nil, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out1.Err(); err != nil {
		t.Fatal(err)
	}
	want := snapshot(t, out1.Results)

	cst, err := st.Compact(resultstore.CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cst.Packed == 0 {
		t.Fatalf("compact packed nothing: %+v", cst)
	}
	if n := looseCellCount(t, dir); n != 0 {
		t.Fatalf("loose cells after compact = %d, want 0 (assembly must read segments)", n)
	}

	st2, err := resultstore.Open(dir) // fresh handle, like a new process
	if err != nil {
		t.Fatal(err)
	}
	sim := newTrackingSim()
	out2 := assemble(t, spec, sim, st2)
	if n := sim.total(); n != 0 {
		t.Errorf("assembly simulated %d times, want 0", n)
	}
	if out2.Stats.CellSims != 0 || out2.Stats.BaselineSims != 0 {
		t.Errorf("assembly sim counters non-zero: %+v", out2.Stats)
	}
	if got := snapshot(t, out2.Results); got != want {
		t.Error("assembly over compacted store differs from the original outcome")
	}
}

// TestAssembleOverCompactedFaultStore runs the same contract for the
// fault-campaign shape: classifications reload from packed records and
// the lazily-memoised golden runs stay lazy (zero simulations).
func TestAssembleOverCompactedFaultStore(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{
		Name:      "faults-compact",
		Workloads: []string{"bitcount"},
		Points:    []Point{{Label: "tableI", Config: paradet.DefaultConfig()}},
		MaxInstrs: 4000,
		Parallel:  2,
		Faults: &FaultGrid{
			Targets: []paradet.FaultTarget{paradet.FaultDestReg, paradet.FaultStoreValue},
			Seqs:    []uint64{40, 400},
			Bits:    []uint8{5},
		},
	}
	st, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out1, err := ExecuteContext(context.Background(), spec, nil, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out1.Err(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Compact(resultstore.CompactOptions{}); err != nil {
		t.Fatal(err)
	}

	st2, err := resultstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim := newTrackingSim()
	out2 := assemble(t, spec, sim, st2)
	if n := sim.total(); n != 0 {
		t.Errorf("fault assembly simulated %d times (goldens must stay lazy), want 0", n)
	}
	for i := range out2.Results {
		if out2.Results[i].FaultRec == nil ||
			out2.Results[i].FaultRec.Outcome != out1.Results[i].FaultRec.Outcome {
			t.Errorf("cell %d outcome changed through compaction", i)
		}
	}
}
