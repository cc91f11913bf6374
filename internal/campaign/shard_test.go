package campaign

import (
	"context"
	"strings"
	"testing"

	"paradet"
	"paradet/internal/resultstore"
)

// TestParseShard covers the CLI "i/n" syntax.
func TestParseShard(t *testing.T) {
	sh, err := ParseShard("1/3")
	if err != nil || sh.Index != 1 || sh.Count != 3 {
		t.Errorf("ParseShard(1/3) = %+v, %v", sh, err)
	}
	if sh.String() != "1/3" {
		t.Errorf("String() = %q", sh.String())
	}
	for _, bad := range []string{"", "3", "a/3", "0/x", "3/3", "-1/3", "0/0", "0/-2"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// weightedSpec crosses two workloads with three points of uneven cost
// (one 4x heavier), so count balance and cost balance disagree.
func weightedSpec() Spec {
	mk := func(label string, instrs uint64) Point {
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = instrs
		return Point{Label: label, Config: cfg}
	}
	return Spec{
		Name:      "weighted-test",
		Workloads: []string{"randacc", "bitcount"},
		Points:    []Point{mk("heavy", 8000), mk("light", 2000), mk("light2", 2000)},
		Parallel:  1,
	}
}

// TestWeightedShardsBalanceAndPartition asserts the cost-weighted plan
// keeps the core shard invariants — pairwise disjoint, full cover,
// independently computable per shard — while balancing summed cell
// cost (resolved MaxInstrs) instead of cell counts, and that it
// actually deviates from round-robin on uneven grids.
func TestWeightedShardsBalanceAndPartition(t *testing.T) {
	spec := weightedSpec()
	const n = 2
	cells := len(spec.Workloads) * len(spec.Points)
	owner := make([]int, cells)
	for i := range owner {
		owner[i] = -1
	}
	load := make([]uint64, n)
	var maxCell uint64
	differs := false
	for s := 0; s < n; s++ {
		out, err := ExecuteContext(context.Background(), spec, nil,
			Options{Shard: &Shard{Index: s, Count: n}})
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		if err := out.Err(); err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		for j := range out.Results {
			r := &out.Results[j]
			if r.Config.MaxInstrs > maxCell {
				maxCell = r.Config.MaxInstrs
			}
			if r.Skipped {
				continue
			}
			if owner[j] != -1 {
				t.Errorf("cell %d owned by shards %d and %d", j, owner[j], s)
			}
			owner[j] = s
			load[s] += r.Config.MaxInstrs
			if j%n != s {
				differs = true
			}
		}
	}
	for j, s := range owner {
		if s == -1 {
			t.Errorf("cell %d owned by no shard", j)
		}
	}
	if !differs {
		t.Error("weighted assignment is identical to round-robin on an uneven grid")
	}
	hi, lo := load[0], load[0]
	for _, l := range load[1:] {
		if l > hi {
			hi = l
		}
		if l < lo {
			lo = l
		}
	}
	if hi-lo > maxCell {
		t.Errorf("weighted loads %v spread by more than the heaviest cell (%d)", load, maxCell)
	}
}

// TestShardRejectsInvalid asserts Execute refuses impossible shards.
func TestShardRejectsInvalid(t *testing.T) {
	_, err := ExecuteContext(context.Background(), testSpec(1), nil,
		Options{Shard: &Shard{Index: 5, Count: 3}})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("invalid shard accepted: %v", err)
	}
}

// TestShardsPartitionGrid asserts the core planning property: N shards
// of one spec are pairwise disjoint, cover every cell exactly once,
// and report their coverage in Stats.
func TestShardsPartitionGrid(t *testing.T) {
	spec := testSpec(2) // 2 workloads x 3 points = 6 cells
	const n = 4         // more shards than divides evenly
	executed := make([]int, len(spec.Workloads)*len(spec.Points))
	for i := 0; i < n; i++ {
		out, err := ExecuteContext(context.Background(), spec, nil,
			Options{Shard: &Shard{Index: i, Count: n}})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if err := out.Err(); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		owned := 0
		for j := range out.Results {
			r := &out.Results[j]
			if r.Skipped {
				if r.Res != nil || r.Baseline != nil || r.Err != nil {
					t.Errorf("shard %d: skipped cell %d carries payload or error", i, j)
				}
				continue
			}
			owned++
			executed[j]++
			if r.Res == nil {
				t.Errorf("shard %d: owned cell %d has no result", i, j)
			}
		}
		if out.Stats.ShardCells != owned || out.Stats.ShardSkipped != len(out.Results)-owned {
			t.Errorf("shard %d coverage stats = %+v, counted %d owned", i, out.Stats, owned)
		}
		if out.Stats.Cells != len(out.Results) {
			t.Errorf("shard %d: Cells = %d, want full grid %d", i, out.Stats.Cells, len(out.Results))
		}
	}
	for j, count := range executed {
		if count != 1 {
			t.Errorf("cell %d executed by %d shards, want exactly 1", j, count)
		}
	}
}

// assemble re-executes spec unsharded against a warm store, as a CLI
// re-run with -store does, failing the test on any cell error.
func assemble(t *testing.T, spec Spec, sim Simulator, st *resultstore.Store) *Outcome {
	t.Helper()
	out, err := ExecuteContext(context.Background(), spec, sim, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardMergeAssembleEquivalence is the acceptance contract for
// distributed sharding: running a spec as 3 shards into separate
// stores, merging the stores, then assembling the full spec from the
// merge performs zero simulations and reproduces the single-host
// results exactly, in spec order.
func TestShardMergeAssembleEquivalence(t *testing.T) {
	spec := testSpec(2)
	ref, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Err(); err != nil {
		t.Fatal(err)
	}

	const n = 3
	var stores []*resultstore.Store
	for i := 0; i < n; i++ {
		st, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out, err := ExecuteContext(context.Background(), spec, nil,
			Options{Store: st, Shard: &Shard{Index: i, Count: n}})
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if err := out.Err(); err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		stores = append(stores, st)
	}

	merged, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := resultstore.Merge(merged, stores...)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Copied == 0 || ms.Corrupt != 0 {
		t.Fatalf("merge stats = %+v", ms)
	}

	sim := newTrackingSim()
	out := assemble(t, spec, sim, merged)
	if got := sim.total(); got != 0 {
		t.Errorf("assembly simulated %d times, want 0", got)
	}
	if out.Stats.CellSims != 0 || out.Stats.BaselineSims != 0 {
		t.Errorf("assembly sim counters non-zero: %+v", out.Stats)
	}
	if a, b := snapshot(t, ref.Results), snapshot(t, out.Results); a != b {
		t.Error("assembled results differ from the single-host run")
	}
}

// TestShardFaultCampaign asserts the fault dimension shards like
// points: disjoint slices of the target x seq x bit grid recombine
// into the full classification via merge + assemble.
func TestShardFaultCampaign(t *testing.T) {
	spec := Spec{
		Name:      "sharded-faults",
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
	ref, err := Execute(spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	merged, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 2
	var stores []*resultstore.Store
	for i := 0; i < n; i++ {
		st, err := resultstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		out, err := ExecuteContext(context.Background(), spec, nil,
			Options{Store: st, Shard: &Shard{Index: i, Count: n}})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Err(); err != nil {
			t.Fatal(err)
		}
		stores = append(stores, st)
	}
	if _, err := resultstore.Merge(merged, stores...); err != nil {
		t.Fatal(err)
	}

	sim := newTrackingSim()
	out := assemble(t, spec, sim, merged)
	if got := sim.total(); got != 0 {
		t.Errorf("assembly simulated %d times (goldens must stay lazy), want 0", got)
	}
	for i := range out.Results {
		if out.Results[i].FaultRec.Outcome != ref.Results[i].FaultRec.Outcome {
			t.Errorf("cell %d outcome changed through shard/merge/assemble", i)
		}
	}
}

// TestOverlappingShardStoresMerge asserts overlap between shard stores
// (e.g. a shard re-run with a different count) only produces dedupes,
// and assembly still succeeds.
func TestOverlappingShardStoresMerge(t *testing.T) {
	spec := testSpec(2)
	half, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), spec, nil,
		Options{Store: half, Shard: &Shard{Index: 0, Count: 2}}); err != nil {
		t.Fatal(err)
	}
	full, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecuteContext(context.Background(), spec, nil, Options{Store: full}); err != nil {
		t.Fatal(err)
	}

	merged, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ms, err := resultstore.Merge(merged, half, full)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Dups == 0 {
		t.Errorf("overlapping stores produced no dedupes: %+v", ms)
	}
	sim := newTrackingSim()
	assemble(t, spec, sim, merged)
	if got := sim.total(); got != 0 {
		t.Errorf("assembly simulated %d times, want 0", got)
	}
}
