package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paradet"
	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/resultstore"
)

// testSpec is one cheap protected cell — the smallest campaign that
// exercises the store-through-HTTP path.
func testSpec(instrs uint64) campaign.Spec {
	return campaign.Spec{
		Name:      "serve-test",
		Workloads: []string{"bitcount"},
		Points:    []campaign.Point{{Label: "base", Config: paradet.DefaultConfig()}},
		Scheme:    campaign.SchemeProtected,
		MaxInstrs: instrs,
		Parallel:  1,
	}
}

// newTestServer opens a fresh store and mounts a Server over it.
func newTestServer(t *testing.T, sim campaign.Simulator) (*Server, *resultstore.Store, *httptest.Server) {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Target: NewLocalTarget(st), Sim: sim, Parallel: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, st, ts
}

// warm executes the spec straight through the engine, returning the
// one cell's fingerprint.
func warm(t *testing.T, st *resultstore.Store, spec campaign.Spec) string {
	t.Helper()
	out, err := campaign.ExecuteContext(context.Background(), spec, nil, campaign.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	cells, err := campaign.Expand(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cells[0].Fingerprint()
}

// TestAPIStatusCodes is the table-driven contract for every route's
// success and failure shapes.
func TestAPIStatusCodes(t *testing.T) {
	_, st, ts := newTestServer(t, nil)
	fp := warm(t, st, testSpec(2000))
	absent := strings.Repeat("0", 64) // valid shape, nothing stored

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		want   string // substring of the response body, "" = skip
	}{
		{"index", "GET", "/", "", 200, "paradet result server"},
		{"status", "GET", "/v1/status", "", 200, `"api": 1`},
		{"metrics", "GET", "/metrics", "", 200, "paradet_serve_sims_total"},
		{"cell hit", "GET", "/v1/cells/" + fp, "", 200, fp},
		{"cell miss", "GET", "/v1/cells/" + absent, "", 404, absent},
		{"malformed fingerprint", "GET", "/v1/cells/not-a-fingerprint", "", 400, "64 lowercase hex"},
		{"traversal fingerprint", "GET", "/v1/cells/..%2fescape", "", 400, ""},
		{"unknown figure", "GET", "/v1/figures/nope", "", 404, "unknown figure"},
		{"figure bad instrs", "GET", "/v1/figures/fig7?instrs=bogus", "", 400, "bad instrs"},
		{"grid", "GET", "/v1/grid?figure=fig7&workloads=bitcount&instrs=2000", "", 200, `"fingerprint"`},
		{"grid unknown figure", "GET", "/v1/grid?figure=nope", "", 400, "unknown experiment"},
		{"grid analytic figure", "GET", "/v1/grid?figure=area", "", 400, "analytic"},
		{"query without figure", "GET", "/v1/cells", "", 400, "need figure"},
		{"query without identity", "GET", "/v1/cells?figure=fig7", "", 400, "need workload"},
		{"query unknown cell", "GET", "/v1/cells?figure=fig7&workload=bitcount&point=nope&workloads=bitcount", "", 400, "no cell"},
		{"campaign malformed json", "POST", "/v1/campaigns", "{not json", 400, "malformed campaign spec"},
		{"campaign invalid spec", "POST", "/v1/campaigns", `{"Name":"x"}`, 400, ""},
		{"campaign unknown workload", "POST", "/v1/campaigns",
			`{"Name":"x","Workloads":["no-such-workload"],"Points":[{"Label":"p"}]}`, 400, "no-such-workload"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d; body: %s", resp.StatusCode, tc.status, body)
			}
			if tc.want != "" && !strings.Contains(string(body), tc.want) {
				t.Fatalf("body %q does not contain %q", body, tc.want)
			}
		})
	}
}

// TestCellQueryByIdentity resolves a cell by (figure, workload,
// point) and checks the 404-with-fingerprint shape for cold cells.
func TestCellQueryByIdentity(t *testing.T) {
	_, st, ts := newTestServer(t, nil)

	// fig7's grid for one workload: warm it by generating the figure
	// straight through the experiments layer.
	o := experiments.Options{Store: st, Workloads: []string{"bitcount"}, MaxInstrs: 2000, Parallel: 1}
	if _, err := experiments.Generate("fig7", o); err != nil {
		t.Fatal(err)
	}

	url := ts.URL + "/v1/cells?figure=fig7&workload=bitcount&point=tableI&workloads=bitcount&instrs=2000"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("warm identity query: status %d, body %s", resp.StatusCode, body)
	}
	var cell resultstore.Cell
	if err := json.NewDecoder(resp.Body).Decode(&cell); err != nil {
		t.Fatal(err)
	}
	if cell.Workload != "bitcount" || cell.Scheme != "protected" {
		t.Fatalf("wrong cell: %s/%s", cell.Workload, cell.Scheme)
	}

	// A different instruction budget is a different (cold) cell: the
	// miss must carry the fingerprint the client would need next.
	resp2, err := http.Get(ts.URL + "/v1/cells?figure=fig7&workload=bitcount&point=tableI&workloads=bitcount&instrs=4000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != 404 {
		t.Fatalf("cold identity query: status %d, want 404", resp2.StatusCode)
	}
	var miss struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&miss); err != nil {
		t.Fatal(err)
	}
	if !resultstore.ValidFingerprint(miss.Fingerprint) {
		t.Fatalf("miss fingerprint %q not a valid fingerprint", miss.Fingerprint)
	}
}

// countingSim counts every simulation entry point, the currency of
// the "warm serving never simulates" contract.
type countingSim struct {
	campaign.Simulator
	runs atomic.Int64
}

func (c *countingSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	c.runs.Add(1)
	return c.Simulator.Run(ctx, cfg, p)
}

func (c *countingSim) RunUnprotected(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	c.runs.Add(1)
	return c.Simulator.RunUnprotected(ctx, cfg, p)
}

// TestFigureWarmByteIdentity: a figure served over HTTP from a warm
// store is byte-identical to what cmd/experiments prints (fig.Text
// plus one newline), with zero simulations.
func TestFigureWarmByteIdentity(t *testing.T) {
	sim := &countingSim{Simulator: campaign.Default()}
	srv, st, ts := newTestServer(t, sim)

	o := experiments.Options{Store: st, Workloads: []string{"bitcount"}, MaxInstrs: 2000, Parallel: 1}
	fig, err := experiments.Generate("fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	warmRuns := sim.runs.Load() // warming is allowed to simulate; serving is not

	resp, err := http.Get(ts.URL + "/v1/figures/fig7?workloads=bitcount&instrs=2000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got, want := string(body), fig.Text+"\n"; got != want {
		t.Fatalf("served figure differs from experiments text:\n--- served\n%s--- want\n%s", got, want)
	}
	if got := sim.runs.Load(); got != warmRuns {
		t.Fatalf("warm figure fetch simulated %d times", got-warmRuns)
	}
	if snap := srv.Snapshot(); snap.Sims != 0 {
		t.Fatalf("snapshot counted %d sims on a warm store", snap.Sims)
	}
}

// gatingSim blocks the first protected-cell simulation until released,
// so a test can hold N identical requests in flight at once.
type gatingSim struct {
	campaign.Simulator
	runs    atomic.Int64
	release chan struct{}
	once    sync.Once
	started chan struct{}
}

func (g *gatingSim) Run(ctx context.Context, cfg paradet.Config, p *paradet.Program) (*paradet.Result, error) {
	g.runs.Add(1)
	g.once.Do(func() { close(g.started) })
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.Simulator.Run(ctx, cfg, p)
}

// TestCampaignSingleFlight: N concurrent identical cold campaign
// submissions collapse to ONE simulation; every response still
// carries a complete summary, and N-1 report shared=true.
func TestCampaignSingleFlight(t *testing.T) {
	const n = 4
	sim := &gatingSim{Simulator: campaign.Default(), release: make(chan struct{}), started: make(chan struct{})}
	srv, _, ts := newTestServer(t, sim)

	spec, err := json.Marshal(testSpec(2000))
	if err != nil {
		t.Fatal(err)
	}

	type reply struct {
		status  int
		summary campaignSummary
	}
	replies := make(chan reply, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(string(spec)))
			if err != nil {
				replies <- reply{status: -1}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			lines := strings.Split(strings.TrimSpace(string(body)), "\n")
			var sum campaignSummary
			json.Unmarshal([]byte(lines[len(lines)-1]), &sum)
			replies <- reply{status: resp.StatusCode, summary: sum}
		}()
	}

	// The leader is inside the gated simulation; wait until the other
	// n-1 requests are parked behind it in the single-flight group, then
	// let the leader finish. (A request counted in flight may not have
	// expanded its grid yet: released then, it would lead a flight of
	// its own.)
	<-sim.started
	deadline := time.Now().Add(10 * time.Second)
	for srv.flights.waiting() < n-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers parked", srv.flights.waiting(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(sim.release)

	sharedCount, simsTotal := 0, 0
	for i := 0; i < n; i++ {
		r := <-replies
		if r.status != 200 {
			t.Fatalf("request failed with status %d", r.status)
		}
		if !r.summary.Done || r.summary.Err != "" {
			t.Fatalf("bad summary: %+v", r.summary)
		}
		if r.summary.Shared {
			sharedCount++
		}
		simsTotal += r.summary.Sims
	}
	if got := sim.runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical campaigns simulated %d times, want 1", n, got)
	}
	if sharedCount != n-1 {
		t.Fatalf("shared=%d requests, want %d", sharedCount, n-1)
	}
	if simsTotal != 1 {
		t.Fatalf("summaries count %d sims total, want 1", simsTotal)
	}
	if snap := srv.Snapshot(); snap.Sims != 1 || snap.Shared != n-1 {
		t.Fatalf("snapshot sims=%d shared=%d, want 1/%d", snap.Sims, snap.Shared, n-1)
	}
}

// TestCampaignStreamsProtocolLines: the response body is the shard
// progress protocol — versioned per-cell events, then the summary.
func TestCampaignStreamsProtocolLines(t *testing.T) {
	_, _, ts := newTestServer(t, nil)
	spec, _ := json.Marshal(testSpec(2000))
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 2 { // one cell event + the summary
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), body)
	}
	var ev struct {
		V        int    `json:"v"`
		Workload string `json:"workload"`
		Sims     int    `json:"sims"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.V != 1 || ev.Workload != "bitcount" || ev.Sims != 1 {
		t.Fatalf("bad progress event: %s", lines[0])
	}
	var sum campaignSummary
	if err := json.Unmarshal([]byte(lines[1]), &sum); err != nil {
		t.Fatal(err)
	}
	if !sum.Done || sum.Cells != 1 || sum.Sims != 1 || sum.Err != "" {
		t.Fatalf("bad summary: %s", lines[1])
	}
}

// TestGridWarmth: /v1/grid reports per-cell warmth that flips after a
// campaign fills the store.
func TestGridWarmth(t *testing.T) {
	_, st, ts := newTestServer(t, nil)
	get := func() (warmCells int, total int) {
		resp, err := http.Get(ts.URL + "/v1/grid?figure=fig7&workloads=bitcount&instrs=2000")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out struct {
			Warm  int `json:"warm"`
			Cells []struct {
				Warm bool `json:"warm"`
			} `json:"cells"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Warm, len(out.Cells)
	}
	warmCells, total := get()
	if warmCells != 0 || total == 0 {
		t.Fatalf("fresh store: warm=%d cells=%d, want 0/>0", warmCells, total)
	}
	o := experiments.Options{Store: st, Workloads: []string{"bitcount"}, MaxInstrs: 2000, Parallel: 1}
	if _, err := experiments.Generate("fig7", o); err != nil {
		t.Fatal(err)
	}
	warmCells, total = get()
	if warmCells != total {
		t.Fatalf("after generation: warm=%d of %d", warmCells, total)
	}
}

// TestFigureTextMatchesGenerateEverywhere locks the Content-Type and
// trailing-newline framing the CI byte-comparison depends on.
func TestFigureFraming(t *testing.T) {
	_, st, ts := newTestServer(t, nil)
	o := experiments.Options{Store: st, Workloads: []string{"bitcount"}, MaxInstrs: 2000, Parallel: 1}
	if _, err := experiments.Generate("fig7", o); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/figures/fig7?workloads=bitcount&instrs=2000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	// fmt.Println(fig.Text) appends one newline to the text; the wire
	// framing must match byte for byte, whatever the text ends with.
	fig, err := experiments.Generate("fig7", o)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != fig.Text+"\n" {
		t.Fatalf("figure framing differs from println framing")
	}
}
