package experiments

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paradet/internal/obs"
)

// TestObsDoesNotPerturbFigures is the zero-drift contract: attaching
// the full observability surface (ledger sink + debug endpoint) to a
// run must leave the rendered figure byte-identical, while the ledger
// records one start/done pair per grid cell.
func TestObsDoesNotPerturbFigures(t *testing.T) {
	plain, err := Generate("fig7", fastOpts())
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.jsonl")
	led, err := obs.OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetLedger(led)
	srv, err := obs.StartDebug("127.0.0.1:0", obs.Default(), nil)
	if err != nil {
		obs.SetLedger(nil)
		t.Fatal(err)
	}
	observed, runErr := Generate("fig7", fastOpts())
	obs.SetLedger(nil)
	led.Close()

	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()

	if runErr != nil {
		t.Fatal(runErr)
	}
	if observed.Text != plain.Text {
		t.Error("figure text differs when observed — obs leaked into the output path")
	}
	if !strings.Contains(string(metrics), "paradet_campaign_cell_seconds") {
		t.Error("/metrics missing paradet_campaign_cell_seconds after a campaign run")
	}

	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	var lastSeq int64
	for _, line := range strings.Split(strings.TrimSpace(string(buf)), "\n") {
		var e obs.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("ledger line is not valid JSON: %q: %v", line, err)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("ledger seq not strictly increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		counts[e.Event]++
	}
	// fig7 over two workloads is a two-cell grid: one sweep, one
	// start/done pair per cell.
	want := map[string]int{"sweep_start": 1, "sweep_done": 1, "cell_start": 2, "cell_done": 2}
	for ev, n := range want {
		if counts[ev] != n {
			t.Errorf("ledger %s count = %d, want %d (all: %v)", ev, counts[ev], n, counts)
		}
	}
}
