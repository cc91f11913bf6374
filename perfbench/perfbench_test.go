package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// runJSON runs the benchmark command in-process and decodes the result
// line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args = append(args, "--out", t.TempDir())
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run %v: exit %d\n%s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestEveryMetricPrinted runs each workload briefly, untraced and
// traced, and checks that every named metric appears with its unit.
func TestEveryMetricPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			for _, mode := range []struct {
				trace string
				specs []metricSpec
			}{{"0", endToEnd}, {"1", perLayer}} {
				res := runJSON(t, "--workload", w.name, "--seed", "7", "--seconds", "0.2", "--trace", mode.trace)
				if !res.Correct || res.Failed != 0 || res.Attempted < minOps {
					t.Errorf("trace %s: correct=%v failed=%d attempted=%d", mode.trace, res.Correct, res.Failed, res.Attempted)
				}
				if len(res.Metrics) != len(mode.specs) {
					t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(res.Metrics), len(mode.specs))
				}
				for _, s := range mode.specs {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("trace %s: metric %s = %+v, want unit %q", mode.trace, s.name, m, s.unit)
					}
				}
				if mode.trace == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
				if w.name == "serve_warm" && mode.trace == "1" && res.Metrics["paradet.sims_per_op"].Value != 0 {
					t.Errorf("serve_warm simulated: paradet.sims_per_op = %v", res.Metrics["paradet.sims_per_op"].Value)
				}
			}
		})
	}
}

// TestCorruptExpectationFailsOps sets each workload up with one
// expected value corrupted and checks that every op is counted as
// failed and the run still completes.
func TestCorruptExpectationFailsOps(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up")
	}
	corrupt := map[string]func(instance){
		"sim_protected": func(in instance) { in.(*simProtected).kernels[3].want.Cycles++ },
		"figure_cold":   func(in instance) { in.(*figureCold).want[1] += "x" },
		"serve_warm":    func(in instance) { in.(*serveWarm).figs[0].body += "x" },
	}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			bad := workload{name: w.name, setup: func(env *env, tr *tracer) (instance, error) {
				in, err := w.setup(env, tr)
				if err == nil {
					corrupt[w.name](in)
				}
				return in, err
			}}
			o := options{workload: w.name, seed: 3, seconds: 0.1, out: t.TempDir()}
			res, _, err := measure(bad, o, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
				t.Errorf("corrupted %s: correct=%v attempted=%d failed=%d, want every op failed",
					w.name, res.Correct, res.Attempted, res.Failed)
			}
		})
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json at the repository
// root declares exactly the metrics this program prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(benchWorkloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(b.Workloads), len(benchWorkloads))
	}
	for i := range b.Workloads {
		if _, ok := workloadByName(b.Workloads[i].Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a program workload", b.Workloads[i].Name)
		}
	}
	for _, c := range []struct {
		kind  string
		json  []struct{ Name, Unit string }
		specs []metricSpec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.specs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program prints %d", c.kind, len(c.json), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if c.json[i].Name != s.name || c.json[i].Unit != s.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, c.json[i].Name, c.json[i].Unit, s.name, s.unit)
			}
		}
	}
}

// TestSelfTime checks the self-time derivation on a hand-built tree: a
// 10-unit parent with two overlapping children covering 2..6 and 5..8.
func TestSelfTime(t *testing.T) {
	ss := newSpanSet([]span{
		{id: 0, parent: -1, name: "p", start: 0, end: 10},
		{id: 1, parent: 0, name: "c", start: 2, end: 6},
		{id: 2, parent: 0, name: "c", start: 5, end: 8},
	})
	if got := ss.self(0); got != 4 {
		t.Errorf("self = %d, want 4", got)
	}
	if got, n := ss.sum("c"); got != 7 || n != 2 {
		t.Errorf("sum = %d over %d spans, want 7 over 2", got, n)
	}
}

// TestBlockMetrics checks that a slow stretch confined to one block
// does not move the per-block medians, and that a short run is one
// block.
func TestBlockMetrics(t *testing.T) {
	ops := make([]meter, blocks*minOps)
	for i := range ops {
		ops[i] = meter{wall: 10 * time.Millisecond, cpu: 20 * time.Millisecond}
		if i < minOps {
			ops[i].wall, ops[i].cpu = 100*time.Millisecond, 200*time.Millisecond
		}
	}
	out := metrics{}
	if k := blockMetrics(ops, out); k != blocks {
		t.Errorf("%d ops cut into %d blocks, want %d", len(ops), k, blocks)
	}
	for name, want := range map[string]float64{"ops_per_s": 100, "op_p50_ms": 10, "op_p90_ms": 10, "cpu_ms_per_op": 20} {
		if got := out[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if k := blockMetrics(ops[:minOps+1], out); k != 1 {
		t.Errorf("%d ops cut into %d blocks, want 1", minOps+1, k)
	}
	if got := out["op_p90_ms"].Value; math.Abs(got-100) > 1e-9 {
		t.Errorf("one-block op_p90_ms = %v, want 100", got)
	}
}
