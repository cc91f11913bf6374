package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"paradet/internal/obs/telemetry"
	"paradet/internal/orchestrator"
)

func localHost(label string, share int) orchestrator.Local {
	return orchestrator.Local{Label: label, Env: []string{fmt.Sprintf("GOMAXPROCS=%d", share)}}
}

// TestNewPool pins the host lists pdsweep builds: without -hosts, -n
// local hosts sharing the cores with stealing off; with -hosts, the
// listed hosts in order.
func TestNewPool(t *testing.T) {
	pool, err := newPool("", 3, true, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	share := max(1, runtime.NumCPU()/3)
	want := []orchestrator.Runner{localHost("local0", share), localHost("local1", share), localHost("local2", share)}
	if !reflect.DeepEqual(pool.Hosts, want) || pool.Steal || pool.HealthTimeout != time.Second {
		t.Errorf("default pool = %+v, want hosts %+v without stealing", pool, want)
	}

	// Blank entries are skipped; a bare word and ssh:HOST are ssh hosts.
	pool, err = newPool(" a, ,ssh:b,local ,", 2, true, time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	want = []orchestrator.Runner{orchestrator.SSH{Host: "a"}, orchestrator.SSH{Host: "b"}, localHost("local2", runtime.NumCPU())}
	if !reflect.DeepEqual(pool.Hosts, want) || !pool.Steal {
		t.Errorf("-hosts pool = %+v, want hosts %+v with stealing", pool, want)
	}

	if _, err := newPool("a,local", 2, true, time.Second, false); err == nil || !strings.Contains(err.Error(), "-store-root") {
		t.Errorf("ssh host without -store-root: error %v", err)
	}
	if _, err := newPool(" , ", 2, true, time.Second, false); err == nil {
		t.Error("-hosts listing no hosts accepted")
	}
}

// TestDefaultDryRunPlan checks the -dry-run plan without -hosts: shard
// i starts on local host i, and nothing is stolen.
func TestDefaultDryRunPlan(t *testing.T) {
	pool, err := newPool("", 3, true, 5*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := orchestrator.Plan(orchestrator.Options{
		Argv: []string{"./experiments", "-run", "fig7"}, Shards: 3, Pool: pool, StoreRoot: "/sweep",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if want := fmt.Sprintf("shard %d -> host %d (local%d)", i, i, i); !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	if !strings.Contains(plan, "steal off") || strings.Contains(plan, "steal attempts") {
		t.Errorf("default plan steals:\n%s", plan)
	}
}

// TestSweepSeries checks that the trace draws only the telemetry of
// cells this sweep simulated: of two sidecars in one directory, the one
// an earlier sweep left is not loaded, and a simulated cell without a
// sidecar is skipped.
func TestSweepSeries(t *testing.T) {
	dir := t.TempDir()
	mine, earlier := strings.Repeat("a", 64), strings.Repeat("b", 64)
	for _, fp := range []string{mine, earlier} {
		s := &telemetry.Series{Header: telemetry.Header{Version: telemetry.SidecarVersion, Fingerprint: fp}}
		if _, err := s.WriteFile(dir); err != nil {
			t.Fatal(err)
		}
	}
	series, err := sweepSeries(dir, map[string]bool{mine: true, strings.Repeat("c", 64): true})
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 1 || series[0].Header.Fingerprint != mine {
		t.Errorf("drew %d series, want only the sweep's own sidecar %s…", len(series), mine[:8])
	}
}
