package paradet_test

// Pinned-stats golden: every workload simulated at the paper's Table I
// configuration must reproduce the exact timing-model statistics
// recorded in testdata/pinned_stats.golden. Any hot-path refactor that
// changes simulation results — even by one cycle — fails here loudly.
// Regenerate deliberately with:
//
//	go test -run TestPinnedStatsGolden -update-golden .

import (
	"flag"
	"fmt"
	"strings"
	"testing"

	"paradet"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/*.golden pins from current results")

const pinnedStatsInstrs = 5000

func pinnedStatsLine(res *paradet.Result) string {
	return fmt.Sprintf("%s instrs=%d cycles=%d ipc=%.6f loads=%d stores=%d "+
		"branches=%d mispredicts=%d checkpoints=%d entries=%d lfupeak=%d meandelayns=%.3f",
		res.Workload, res.Instructions, res.Cycles, res.IPC,
		res.Loads, res.Stores, res.Branches, res.Mispredicts,
		res.Checkpoints, res.EntriesLogged, res.LFUPeak, res.Delay.MeanNS)
}

func TestPinnedStatsGolden(t *testing.T) {
	var lines []string
	for _, w := range paradet.Workloads() {
		p, _, err := paradet.LoadWorkload(w.Name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := paradet.DefaultConfig()
		cfg.MaxInstrs = pinnedStatsInstrs
		res, err := paradet.Run(cfg, p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		lines = append(lines, pinnedStatsLine(res))
	}
	checkGolden(t, "pinned_stats.golden", strings.Join(lines, "\n")+"\n")
}
