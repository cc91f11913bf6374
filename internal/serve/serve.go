// Package serve is the single-node HTTP serving layer over the
// content-addressed campaign result store — the gateway half of a
// gateway/target split (aistore-style): a stateless, versioned JSON
// API in front of a Target that owns the loose/segment trees on disk.
//
//	GET  /v1/status                  store identity and load
//	GET  /v1/cells/{fingerprint}     one cell, content-addressed (warm only)
//	GET  /v1/cells?figure=&workload=&point=[&scheme=]   cell by identity (warm only)
//	GET  /v1/grid?figure=            a figure's expanded grid + fingerprints
//	GET  /v1/figures/{name}          a rendered figure (simulates cold cells)
//	POST /v1/campaigns               run a campaign spec on the server's pool, stream progress
//	GET  /metrics                    Prometheus text format
//
// Warm cells are served straight from the store's loose→segment read
// path with zero simulation, each as the body its cell encoded on its
// first serve. Cold figures and campaigns execute
// through the ordinary campaign engine against the target's store,
// under fingerprint-keyed single-flight dedupe: N concurrent
// identical requests cost one set of simulations, and every response
// is rebuilt from the warmed store, so a figure fetched over HTTP is
// byte-identical to cmd/experiments stdout (the serve-equivalence CI
// job holds both contracts).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/obs"
	"paradet/internal/orchestrator"
	"paradet/internal/resultstore"
)

// APIVersion is the served API's version: the /v1 path prefix, the
// /v1/status "api" field, and the response shapes documented above.
// Breaking changes mount a new prefix instead of mutating this one.
const APIVersion = 1

// maxSpecBytes bounds a POSTed campaign spec. The largest legitimate
// spec (every workload × every point × a dense fault grid) is a few
// KiB of JSON; a megabyte is generous, not open-ended.
const maxSpecBytes = 1 << 20

// Config assembles a Server.
type Config struct {
	// Target owns the result store the server reads and simulates
	// into. Required.
	Target Target
	// Sim executes cold cells (nil = the real simulator). Tests swap
	// in counting or gating fakes here.
	Sim campaign.Simulator
	// Parallel bounds each cold execution's worker pool
	// (0 = GOMAXPROCS), like the -parallel flag of cmd/experiments.
	Parallel int
}

// Server is the HTTP API. It is an http.Handler; cmd/pdserve mounts
// it on a listener, and tests drive it through httptest.
type Server struct {
	mux      *http.ServeMux
	target   Target
	sim      campaign.Simulator
	parallel int
	flights  *group
	started  time.Time

	// Request-scoped counters mirrored into the obs registry; kept on
	// the server too so Snapshot (and tests) see this instance alone
	// even when several servers share a process.
	requests   atomic.Uint64
	cellHits   atomic.Uint64
	cellMisses atomic.Uint64
	sims       atomic.Uint64
	shared     atomic.Uint64
	inflight   atomic.Int64
}

// New builds a Server over the target.
func New(c Config) *Server {
	if c.Target == nil {
		panic("serve: Config.Target is required")
	}
	sim := c.Sim
	if sim == nil {
		sim = campaign.Default()
	}
	s := &Server{
		mux:      http.NewServeMux(),
		target:   c.Target,
		sim:      sim,
		parallel: c.Parallel,
		flights:  newGroup(),
		started:  time.Now(),
	}
	s.mux.HandleFunc("GET /{$}", s.instrument("index", s.handleIndex))
	s.mux.HandleFunc("GET /v1/status", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("GET /v1/cells/{fp}", s.instrument("cell", s.handleCellByFingerprint))
	s.mux.HandleFunc("GET /v1/cells", s.instrument("cell_query", s.handleCellQuery))
	s.mux.HandleFunc("GET /v1/grid", s.instrument("grid", s.handleGrid))
	s.mux.HandleFunc("GET /v1/figures/{name}", s.instrument("figure", s.handleFigure))
	s.mux.HandleFunc("POST /v1/campaigns", s.instrument("campaign", s.handleCampaign))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Snapshot is the server's live request accounting, served on the
// -debug-addr /progress endpoint and asserted by tests.
type Snapshot struct {
	Requests   uint64 `json:"requests"`
	CellHits   uint64 `json:"cell_hits"`
	CellMisses uint64 `json:"cell_misses"`
	Sims       uint64 `json:"sims"`
	Shared     uint64 `json:"singleflight_shared"`
	Inflight   int64  `json:"inflight"`
	ActiveKeys int    `json:"active_keys"`
}

// Snapshot reports the server's counters at this instant.
func (s *Server) Snapshot() Snapshot {
	return Snapshot{
		Requests:   s.requests.Load(),
		CellHits:   s.cellHits.Load(),
		CellMisses: s.cellMisses.Load(),
		Sims:       s.sims.Load(),
		Shared:     s.shared.Load(),
		Inflight:   s.inflight.Load(),
		ActiveKeys: s.flights.active(),
	}
}

// instrument wraps a handler with request metrics and (when a ledger
// is attached) one serve_request ledger line per request.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ctr := obsRequests.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.requests.Add(1)
		s.inflight.Add(1)
		obsInflight.Add(1)
		defer func() {
			s.inflight.Add(-1)
			obsInflight.Add(-1)
			ctr.Inc()
			elapsed := time.Since(start)
			obsReqSeconds.Observe(elapsed.Seconds())
			if obs.Enabled() {
				obs.Emit(obs.Entry{Event: "serve_request", Phase: "serve",
					Detail: route, DurMS: elapsed.Milliseconds()})
			}
		}()
		h(w, r)
	}
}

// noteSims folds one execution's simulation count (cells plus
// memoised reference runs) into the serving counters.
func (s *Server) noteSims(n int) {
	if n <= 0 {
		return
	}
	s.sims.Add(uint64(n))
	obsSims.Add(uint64(n))
}

// noteShared records a request that waited on identical in-flight
// work instead of executing cold itself.
func (s *Server) noteShared(shared bool) {
	if shared {
		s.shared.Add(1)
		obsShared.Inc()
	}
}

// writeJSON renders v with the trailing newline curl users expect.
// Cells are served by writeCell instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

// writeCell serves a stored cell: its body (resultstore.Cell.Body), the
// bytes writeJSON would write for it. A cell the store read returned
// encodes its body once, on its first serve.
func writeCell(w http.ResponseWriter, c *resultstore.Cell) {
	body, err := c.Body()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "encode cell: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// apiError is the error envelope every non-2xx JSON response uses.
type apiError struct {
	Error string `json:"error"`
	// Fingerprint names the missing cell on 404s that resolved an
	// identity to a fingerprint, so the client can submit a campaign
	// (or fetch elsewhere) without recomputing it.
	Fingerprint string `json:"fingerprint,omitempty"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "paradet result server (api v%d, store %s)\n\n", APIVersion, s.target.Store().Dir())
	io.WriteString(w, ""+
		"GET  /v1/status                                        store identity and load\n"+
		"GET  /v1/cells/{fingerprint}                           one cell by content address (warm only)\n"+
		"GET  /v1/cells?figure=F&workload=W&point=P[&scheme=S]  one cell by identity (warm only)\n"+
		"GET  /v1/grid?figure=F[&instrs=N][&workloads=a,b]      a figure's expanded grid and fingerprints\n"+
		"GET  /v1/figures/{name}[?instrs=N&workloads=a,b]       rendered figure (simulates cold cells once)\n"+
		"POST /v1/campaigns                                     run a campaign spec, stream progress lines\n"+
		"GET  /metrics                                          Prometheus text format\n")
}

// handleStatus reports the store's identity and load. indexed_cells
// counts the cells the target's Index lists: those a read serves, each
// stored copy judged through the store's read memo.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	idx, err := s.target.Index()
	status := struct {
		API        int    `json:"api"`
		Schema     int    `json:"schema"`
		Store      string `json:"store"`
		Indexed    int    `json:"indexed_cells"`
		ActiveKeys int    `json:"active_keys"`
		UptimeSec  int64  `json:"uptime_sec"`
	}{
		API:        APIVersion,
		Schema:     resultstore.SchemaVersion,
		Store:      s.target.Store().Dir(),
		Indexed:    len(idx),
		ActiveKeys: s.flights.active(),
		UptimeSec:  int64(time.Since(s.started).Seconds()),
	}
	if err != nil {
		// A store that cannot be listed degrades the count, not the
		// endpoint.
		status.Indexed = -1
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default().WritePrometheus(w)
}

// handleCellByFingerprint is the pure content-addressed read: the
// warm loose→segment path, no simulation ever.
func (s *Server) handleCellByFingerprint(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	if !resultstore.ValidFingerprint(fp) {
		httpError(w, http.StatusBadRequest, "malformed fingerprint %q (want 64 lowercase hex digits)", fp)
		return
	}
	cell, ok := s.target.Cell(fp)
	if !ok {
		s.cellMisses.Add(1)
		obsCellMiss.Inc()
		writeJSON(w, http.StatusNotFound, apiError{Error: "no cell stored under this fingerprint", Fingerprint: fp})
		return
	}
	s.cellHits.Add(1)
	obsCellHit.Inc()
	writeCell(w, cell)
}

// figureOptions lifts the common query parameters (instrs, workloads)
// into experiments options bound to this server's store and pool.
func (s *Server) figureOptions(q url.Values) (experiments.Options, error) {
	o := experiments.Options{Store: s.target.Store(), Parallel: s.parallel, Sim: s.sim}
	if v := q.Get("instrs"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil || n == 0 {
			return o, fmt.Errorf("bad instrs %q (want a positive integer)", v)
		}
		o.MaxInstrs = n
	}
	if v := q.Get("workloads"); v != "" {
		o.Workloads = strings.Split(v, ",")
	}
	return o, nil
}

// resolveGrid expands the named figure's campaign under the request's
// options. Client mistakes (unknown figure, the analytic "area",
// unknown workloads) come back as errors for a 400.
func (s *Server) resolveGrid(r *http.Request, o experiments.Options) (campaign.Spec, []campaign.CellID, error) {
	spec, err := experiments.SpecNamed(r.URL.Query().Get("figure"), o)
	if err != nil {
		return campaign.Spec{}, nil, err
	}
	cells, err := campaign.Expand(r.Context(), spec, s.sim)
	if err != nil {
		return campaign.Spec{}, nil, err
	}
	return spec, cells, nil
}

// handleCellQuery serves one cell by identity: the figure names the
// grid, (workload, point[, scheme]) names the cell within it, and the
// fingerprint falls out of the expansion — still zero simulation.
// Fault-grid cells are many per (workload, point); the first match is
// served and the fault dimension stays addressable by fingerprint.
func (s *Server) handleCellQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("figure") == "" {
		httpError(w, http.StatusBadRequest, "need figure=NAME (and workload=, point=) — or GET /v1/cells/{fingerprint}")
		return
	}
	workload, point := q.Get("workload"), q.Get("point")
	if workload == "" || point == "" {
		httpError(w, http.StatusBadRequest, "need workload= and point= to identify a cell (see /v1/grid?figure=%s)", q.Get("figure"))
		return
	}
	o, err := s.figureOptions(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	_, cells, err := s.resolveGrid(r, o)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	scheme := q.Get("scheme")
	idx := slices.IndexFunc(cells, func(c campaign.CellID) bool {
		return c.Workload == workload && c.Point == point && (scheme == "" || string(c.Scheme) == scheme)
	})
	if idx < 0 {
		httpError(w, http.StatusBadRequest, "no cell (workload=%s, point=%s, scheme=%s) in figure %s's grid",
			workload, point, scheme, q.Get("figure"))
		return
	}
	fp := cells[idx].Fingerprint()
	cell, ok := s.target.Lookup(cells[idx].Key)
	if !ok {
		s.cellMisses.Add(1)
		obsCellMiss.Inc()
		writeJSON(w, http.StatusNotFound, apiError{Error: "cell not stored (fetch the figure, or POST the campaign, to simulate it)", Fingerprint: fp})
		return
	}
	s.cellHits.Add(1)
	obsCellHit.Inc()
	writeCell(w, cell)
}

// gridCell is one row of the /v1/grid listing.
type gridCell struct {
	Index       int    `json:"index"`
	Workload    string `json:"workload"`
	Point       string `json:"point"`
	Scheme      string `json:"scheme"`
	Fingerprint string `json:"fingerprint"`
	Warm        bool   `json:"warm"`
}

// handleGrid lists the named figure's expanded grid: every cell's
// identity, fingerprint and warmth. This is the discovery surface for
// the content-addressed endpoints — and still zero simulation.
func (s *Server) handleGrid(w http.ResponseWriter, r *http.Request) {
	o, err := s.figureOptions(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spec, cells, err := s.resolveGrid(r, o)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := struct {
		Figure   string     `json:"figure"`
		Campaign string     `json:"campaign"`
		Cells    []gridCell `json:"cells"`
		Warm     int        `json:"warm"`
	}{Figure: r.URL.Query().Get("figure"), Campaign: spec.Name, Cells: make([]gridCell, 0, len(cells))}
	for i := range cells {
		c := &cells[i]
		_, warm := s.target.Lookup(c.Key)
		if warm {
			out.Warm++
		}
		out.Cells = append(out.Cells, gridCell{
			Index:       c.Index,
			Workload:    c.Workload,
			Point:       c.Point,
			Scheme:      string(c.Scheme),
			Fingerprint: c.Fingerprint(),
			Warm:        warm,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// gridKey is the single-flight identity of one expanded grid: the
// content address of the work itself (every cell fingerprint, plus
// whether baselines ride along), so two requests dedupe exactly when
// they would simulate the same cells — however they were spelled.
func gridKey(withBaseline bool, cells []campaign.CellID) string {
	h := sha256.New()
	fmt.Fprintf(h, "baseline=%t\n", withBaseline)
	for i := range cells {
		io.WriteString(h, cells[i].Fingerprint())
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// handleFigure renders one named figure. Warm grids are pure store
// reads; cold cells simulate through the campaign engine exactly as
// cmd/experiments would, under single-flight. The text body is
// byte-identical to `experiments -run NAME` stdout for that figure.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !slices.Contains(experiments.Names(), name) {
		httpError(w, http.StatusNotFound, "unknown figure %q (have %s)", name, strings.Join(experiments.Names(), ", "))
		return
	}
	o, err := s.figureOptions(r.URL.Query())
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	stats := &campaign.Stats{}
	o.Context, o.Stats = r.Context(), stats

	var fig *experiments.Figure
	generate := func() error {
		f, err := experiments.Generate(name, o)
		if err == nil {
			fig = f
		}
		return err
	}
	if name == "area" {
		// Analytic: no campaign, nothing to dedupe.
		err = generate()
	} else {
		spec, err2 := experiments.SpecNamed(name, o)
		if err2 != nil {
			httpError(w, http.StatusBadRequest, "%v", err2)
			return
		}
		cells, err2 := campaign.Expand(r.Context(), spec, s.sim)
		if err2 != nil {
			httpError(w, http.StatusBadRequest, "%v", err2)
			return
		}
		var shared bool
		shared, err = s.flights.do(r.Context(), gridKey(spec.WithBaseline, cells), generate)
		s.noteShared(shared)
	}
	s.noteSims(stats.CellSims + stats.BaselineSims)
	if err != nil {
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			return // client went away; nobody is reading the response
		}
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, fig)
		return
	}
	// The byte-identity contract: cmd/experiments prints
	// fmt.Println(fig.Text), i.e. the text plus one newline.
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, fig.Text)
	io.WriteString(w, "\n")
}

// campaignSummary is the final line of a /v1/campaigns stream,
// distinguished from progress events by "done": true.
type campaignSummary struct {
	Done      bool   `json:"done"`
	Cells     int    `json:"cells"`
	Hits      int    `json:"hits"`
	Sims      int    `json:"sims"`
	Shared    bool   `json:"shared,omitempty"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Err       string `json:"err,omitempty"`
}

// flushWriter flushes after every write so progress lines cross the
// wire as the cells finish, not when the response buffer fills.
type flushWriter struct {
	w io.Writer
	f http.Flusher
}

func (fw *flushWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	if err == nil && fw.f != nil {
		fw.f.Flush()
	}
	return n, err
}

// handleCampaign executes a POSTed campaign spec against the target's
// store, streaming one progress-protocol line per completed cell (the
// exact Event schema pdsweep's workers emit) and a final summary
// line. Identical concurrent submissions are single-flighted: one
// simulates, the rest replay from the warmed store. The campaign runs
// on the server's pool (Config.Parallel): the spec's Parallel is
// ignored, so a client cannot widen it.
func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read spec: %v", err)
		return
	}
	var spec campaign.Spec
	if err := json.Unmarshal(body, &spec); err != nil {
		httpError(w, http.StatusBadRequest, "malformed campaign spec: %v", err)
		return
	}
	spec.Parallel = s.parallel
	cells, err := campaign.Expand(r.Context(), spec, s.sim)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	fw := &flushWriter{w: w, f: flusher}
	start := time.Now()

	var out *campaign.Outcome
	shared, err := s.flights.do(r.Context(), gridKey(spec.WithBaseline, cells), func() error {
		o, err := campaign.ExecuteContext(r.Context(), spec, s.sim, campaign.Options{
			Store:    s.target.Store(),
			Progress: orchestrator.Emitter(fw, nil, start),
		})
		out = o
		return err
	})
	s.noteShared(shared)

	summary := campaignSummary{Done: true, Shared: shared, ElapsedMS: time.Since(start).Milliseconds()}
	if out != nil {
		summary.Cells = out.Stats.Cells
		summary.Hits = out.Stats.CellHits + out.Stats.BaselineHits
		summary.Sims = out.Stats.CellSims + out.Stats.BaselineSims
		s.noteSims(summary.Sims)
		if cerr := out.Err(); cerr != nil {
			summary.Err = cerr.Error()
		}
	}
	if err != nil && summary.Err == "" {
		summary.Err = err.Error()
	}
	line, _ := json.Marshal(summary)
	fw.Write(append(line, '\n'))
}
