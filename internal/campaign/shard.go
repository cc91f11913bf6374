package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard deterministically selects a 1/Count slice of a campaign's
// expanded run grid so N hosts can split one sweep. The assignment
// balances summed cell cost, where a cell's cost is its resolved
// committed-instruction sample (Config.MaxInstrs, after spec and
// workload defaults apply): cells are taken in spec order
// (workload-major, then point, then fault) and each goes to the
// currently lightest shard, ties to the lowest index. When every cell
// weighs the same that is cell i to shard i mod Count. The plan
// depends only on the spec, never on worker scheduling, so the same
// (i, n) always names the same cells, every shard computes it
// independently, the n shards are pairwise disjoint, and their union
// is the full grid.
//
// Shards may share one result store (writes are atomic renames), so
// re-executing the full spec unsharded against it assembles the sweep;
// shards that wrote separate stores are recombined with
// resultstore.Merge first. Either way assembly reproduces the
// single-host outcome without simulating anything.
type Shard struct {
	// Index is this shard's position, 0 <= Index < Count.
	Index int
	// Count is the total number of shards.
	Count int
}

// ParseShard parses the CLI shard syntax "i/n" (e.g. "0/3").
func ParseShard(s string) (Shard, error) {
	idx, count, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("shard %q: want i/n (e.g. 0/3)", s)
	}
	i, err := strconv.Atoi(strings.TrimSpace(idx))
	if err != nil {
		return Shard{}, fmt.Errorf("shard %q: index: %w", s, err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(count))
	if err != nil {
		return Shard{}, fmt.Errorf("shard %q: count: %w", s, err)
	}
	sh := Shard{Index: i, Count: n}
	return sh, sh.Validate()
}

// String renders the shard in the CLI "i/n" syntax.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Validate rejects impossible shards.
func (s Shard) Validate() error {
	if s.Count < 1 {
		return fmt.Errorf("shard %d/%d: count must be >= 1", s.Index, s.Count)
	}
	if s.Index < 0 || s.Index >= s.Count {
		return fmt.Errorf("shard %d/%d: index out of range [0, %d)", s.Index, s.Count, s.Count)
	}
	return nil
}

// planner compiles the shard plan into an ownership predicate over the
// expanded grid. It sees the fully resolved cells (Config.MaxInstrs
// filled in), which is all the cost weighting needs.
func (s Shard) planner(cells []Run) func(int) bool {
	assign := weightedAssign(cells, s.Count)
	return func(i int) bool { return assign[i] == s.Index }
}

// weightedAssign greedily assigns each cell, in spec order, to the
// shard with the least accumulated cost so far (ties to the lowest
// shard index). Cost is the cell's resolved MaxInstrs; a zero sample
// (unresolvable workload) counts as 1 so such cells still spread.
func weightedAssign(cells []Run, n int) []int {
	load := make([]uint64, n)
	assign := make([]int, len(cells))
	for i := range cells {
		w := cells[i].Config.MaxInstrs
		if w == 0 {
			w = 1
		}
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		assign[i] = best
		load[best] += w
	}
	return assign
}
