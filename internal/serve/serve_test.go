package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"slices"
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

// TestCellResponseBytes pins the body of GET /v1/cells/{fp}: the
// stored JSON plus a newline, for a loose and a packed cell, on the
// first request and on a repeated one; once a Put replaces the cell,
// the next response carries the new bytes.
func TestCellResponseBytes(t *testing.T) {
	_, st, ts := newTestServer(t, nil)
	keyOf := func(spec campaign.Spec) resultstore.Key {
		t.Helper()
		warm(t, st, spec)
		cells, err := campaign.Expand(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cells[0].Key
	}
	stored := func(k resultstore.Key) string {
		t.Helper()
		data, err := os.ReadFile(st.Path(k))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	fetch := func(fp string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cells/" + fp)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET cell %s: status %d (%v), body %s", fp, resp.StatusCode, err, body)
		}
		return string(body)
	}

	packed := keyOf(testSpec(2000))
	packedJSON := stored(packed)
	if cs, err := st.Compact(resultstore.CompactOptions{}); err != nil || cs.Packed != 1 {
		t.Fatalf("compact: %+v, %v", cs, err)
	}
	loose := keyOf(testSpec(3000))
	for _, c := range []struct {
		name string
		key  resultstore.Key
		json string
	}{{"loose", loose, stored(loose)}, {"packed", packed, packedJSON}} {
		fp := c.key.Fingerprint()
		for _, req := range []string{"first", "repeated"} {
			if got := fetch(fp); got != c.json+"\n" {
				t.Errorf("%s cell, %s request: body is not the stored JSON plus a newline:\n%s", c.name, req, got)
			}
		}
		if err := st.Put(c.key, &resultstore.Cell{Result: &paradet.Result{Workload: c.key.Workload, Instructions: 1}}); err != nil {
			t.Fatal(err)
		}
		replaced := stored(c.key)
		if replaced == c.json {
			t.Fatalf("%s cell: the replacement wrote the same bytes", c.name)
		}
		if got := fetch(fp); got != replaced+"\n" {
			t.Errorf("%s cell after a Put: body is not the new stored JSON plus a newline:\n%s", c.name, got)
		}
	}
}

// TestNonCanonicalCellServedCanonically guards the body rule: a loose
// cell that decodes and passes every check but is not MarshalIndent
// output (compact, with an unknown field and a case-variant duplicate
// key) is served as the canonical encoding of what the server decoded,
// never as the stored bytes, by fingerprint and by identity, on a
// first and on a repeated request.
func TestNonCanonicalCellServedCanonically(t *testing.T) {
	_, st, ts := newTestServer(t, nil)
	spec, err := experiments.SpecNamed("fig7", experiments.Options{Workloads: []string{"bitcount"}, MaxInstrs: 2000})
	if err != nil {
		t.Fatal(err)
	}
	cells, err := campaign.Expand(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	id := cells[slices.IndexFunc(cells, func(c campaign.CellID) bool { return c.Scheme == campaign.SchemeProtected })]
	fp := id.Fingerprint()
	compact, err := json.Marshal(resultstore.Cell{
		Schema: resultstore.SchemaVersion, Fingerprint: fp,
		Workload: id.Key.Workload, Scheme: id.Key.Scheme, Config: id.Key.Config,
		Result: &paradet.Result{Workload: id.Workload, Instructions: 2000},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The decoder ignores the unknown field, and the later "workload"
	// overrides the decoy under "Workload".
	stored := []byte(`{"unknown_field":"not served","Workload":"decoy",` + string(compact[1:]))
	var decoded resultstore.Cell
	if err := json.Unmarshal(stored, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Workload != id.Workload {
		t.Fatalf("decoded workload %q, want %q", decoded.Workload, id.Workload)
	}
	canonical, err := json.MarshalIndent(&decoded, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	want := string(canonical) + "\n"
	path := st.Path(id.Key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, stored, 0o644); err != nil {
		t.Fatal(err)
	}

	query := url.Values{"figure": {"fig7"}, "workloads": {"bitcount"}, "instrs": {"2000"},
		"workload": {id.Workload}, "point": {id.Point}, "scheme": {string(id.Scheme)}}
	for _, route := range []string{"/v1/cells/" + fp, "/v1/cells?" + query.Encode()} {
		for _, req := range []string{"first", "repeated"} {
			resp, err := http.Get(ts.URL + route)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d (%v), body %s", route, resp.StatusCode, err, body)
			}
			if string(body) != want {
				t.Errorf("GET %s, %s request: body is not the canonical encoding of the decoded cell:\n%s", route, req, body)
			}
		}
	}
}

// TestRepeatedCellGetEncodesNothing asserts a repeated warm GET
// /v1/cells/{fp} writes the body its read's verified decode encoded.
// The cell carries a 256-key map, so encoding it per request would
// cost over 500 allocations; without that, the handler, the store read
// and the recorder take about 30.
func TestRepeatedCellGetEncodesNothing(t *testing.T) {
	srv, st, _ := newTestServer(t, nil)
	k := resultstore.Key{Workload: "bitcount", Scheme: "protected", Config: paradet.DefaultConfig()}
	res := &paradet.Result{Workload: "bitcount", SealsByReason: map[string]uint64{}}
	for i := 0; i < 256; i++ {
		res.SealsByReason[fmt.Sprintf("reason-%03d", i)] = uint64(i)
	}
	if err := st.Put(k, &resultstore.Cell{Result: res}); err != nil {
		t.Fatal(err)
	}
	stored, err := os.ReadFile(st.Path(k))
	if err != nil {
		t.Fatal(err)
	}
	get := func() {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cells/"+k.Fingerprint(), nil))
		if rec.Code != http.StatusOK || rec.Body.String() != string(stored)+"\n" {
			t.Fatalf("GET cell: status %d, body %s", rec.Code, rec.Body)
		}
	}
	get() // the first read decodes and encodes
	if allocs := testing.AllocsPerRun(20, get); allocs > 100 {
		t.Errorf("a repeated GET did %.0f allocations, want <= 100 (is the cell encoded per request?)", allocs)
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

// peakSim fakes protected runs and records the peak number running
// at once.
type peakSim struct {
	campaign.Simulator
	mu            sync.Mutex
	running, peak int
}

func (p *peakSim) Run(ctx context.Context, cfg paradet.Config, prog *paradet.Program) (*paradet.Result, error) {
	p.mu.Lock()
	p.running++
	p.peak = max(p.peak, p.running)
	p.mu.Unlock()
	time.Sleep(20 * time.Millisecond) // long enough for a wider pool to overlap runs
	p.mu.Lock()
	p.running--
	p.mu.Unlock()
	return &paradet.Result{Workload: prog.Name(), Instructions: cfg.MaxInstrs}, nil
}

// TestCampaignRunsOnServerPool asserts a POSTed campaign runs on the
// server's pool: a spec asking for 4 workers still runs one cell at a
// time on a server built with Parallel 1.
func TestCampaignRunsOnServerPool(t *testing.T) {
	sim := &peakSim{Simulator: campaign.Default()}
	_, _, ts := newTestServer(t, sim)
	spec := testSpec(2000)
	spec.Parallel = 4
	spec.Points = nil
	for n := 1; n <= 4; n++ {
		cfg := paradet.DefaultConfig()
		cfg.NumCheckers = n
		spec.Points = append(spec.Points, campaign.Point{Label: fmt.Sprintf("checkers=%d", n), Config: cfg})
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var sum campaignSummary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil || !sum.Done || sum.Err != "" || sum.Sims != 4 {
		t.Fatalf("summary %+v (%v), want 4 cells simulated without error:\n%s", sum, err, out)
	}
	sim.mu.Lock()
	defer sim.mu.Unlock()
	if sim.peak != 1 {
		t.Fatalf("%d simulations ran at once on a server with Parallel 1", sim.peak)
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
