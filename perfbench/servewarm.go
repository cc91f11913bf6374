package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"slices"
	"time"

	"paradet/internal/campaign"
	"paradet/internal/experiments"
	"paradet/internal/resultstore"
	"paradet/internal/serve"
)

// serveInstrs is the sample per cell of serve_warm's figures. Serving
// reads stored cells and simulates nothing, so the sample sets only
// set-up's cost.
const serveInstrs = 5_000

// servedFigures are serve_warm's figures, served in this order. Set-up
// packs the first one's cells into a segment and leaves the second's
// loose, so both store read layouts are on the path.
var servedFigures = []figure{
	{name: "fig9", workloads: []string{"randacc", "stream", "bitcount"}, instrs: serveInstrs},
	{name: "faultcov", instrs: serveInstrs},
}

// Request span names, one per route a session uses.
const (
	spanGrid      = "serve.grid"
	spanCellGet   = "serve.cell"
	spanCellQuery = "serve.cell_query"
	spanFigure    = "serve.figure"
)

var requestSpans = []string{spanGrid, spanCellGet, spanCellQuery, spanFigure}

// endpoint is one serve.Server on a loopback listener.
type endpoint struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

func startEndpoint(c serve.Config) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ep := &endpoint{srv: serve.New(c), base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	ep.hs = &http.Server{Handler: ep.srv, ReadHeaderTimeout: 10 * time.Second}
	go func() { ep.done <- ep.hs.Serve(ln) }()
	return ep, nil
}

// close stops the server and waits for its Serve loop to return.
func (ep *endpoint) close() {
	ep.hs.Close()
	<-ep.done
}

// servedFigure is what set-up knows about one served figure.
type servedFigure struct {
	figure
	body  string   // experiments.Generate text as served: text plus newline
	cells []string // the expanded grid's fingerprints, in grid order
	ids   []campaign.CellID
}

// serveWarm is the serve_warm workload: each op is one client session
// over one keep-alive connection to a warm serve.Server.
type serveWarm struct {
	seed    uint64
	dir     string
	figs    []servedFigure
	client  *http.Client
	plain   *endpoint // wrappers absent
	traced  *endpoint // timing Target and Simulator; traced run only
	at      *parentRef
	counter storeCounters
	store   storeReading
}

// setupServeWarm warms a fresh store with the served figures,
// compacting the first figure's cells into a segment before warming
// the second, starts the server and runs one untimed session.
func setupServeWarm(env *env, tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp(env.work, "warm-")
	if err != nil {
		return nil, err
	}
	s := &serveWarm{seed: env.seed, dir: dir}
	if err := s.start(tr); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveWarm) start(tr *tracer) error {
	store, err := resultstore.Open(s.dir)
	if err != nil {
		return err
	}
	for k, fig := range servedFigures {
		f, err := experiments.Generate(fig.name, fig.options(store))
		if err != nil {
			return fmt.Errorf("warm %s: %w", fig.name, err)
		}
		spec, err := experiments.SpecNamed(fig.name, fig.options(nil))
		if err != nil {
			return err
		}
		ids, err := campaign.Expand(context.Background(), spec, nil)
		if err != nil {
			return err
		}
		sf := servedFigure{figure: fig, body: f.Text + "\n", ids: ids}
		for i := range ids {
			sf.cells = append(sf.cells, ids[i].Fingerprint())
		}
		s.figs = append(s.figs, sf)
		if k == 0 {
			st, err := store.Compact(resultstore.CompactOptions{})
			if err != nil {
				return fmt.Errorf("compact: %w", err)
			}
			if st.Packed == 0 {
				return fmt.Errorf("compact packed no cells")
			}
		}
	}
	s.client = &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: 30 * time.Second}
	if s.plain, err = startEndpoint(serve.Config{Target: serve.NewLocalTarget(store), Parallel: figWorkers}); err != nil {
		return err
	}
	if tr != nil {
		s.at = &parentRef{}
		s.counter = newStoreCounters()
		sp := spanner{tr, s.at}
		s.traced, err = startEndpoint(serve.Config{
			Target:   &timedTarget{spanner: sp, inner: serve.NewLocalTarget(store)},
			Sim:      &timedSim{spanner: sp, inner: campaign.Default()},
			Parallel: figWorkers,
		})
		if err != nil {
			return err
		}
	}
	var m meter
	return s.op(-1, &m, nil)
}

// op is one client session: for each served figure, the grid, every
// listed cell by fingerprint (in a seeded order), one identity query,
// then the rendered figure. Every response must be 200 and match what
// set-up computed, and the server must not have simulated.
func (s *serveWarm) op(i int, m *meter, tr *tracer) error {
	ep := s.plain
	var before storeReading
	if tr != nil {
		ep = s.traced
		before = s.counter.read()
	}
	m.start()
	opSpan := tr.begin(i, -1, "op")
	err := s.session(i, opSpan, ep, tr)
	tr.end(opSpan)
	m.stop()
	if tr != nil {
		s.store.addDelta(before, s.counter.read())
	}
	if err != nil {
		return err
	}
	if sims := ep.srv.Snapshot().Sims; sims != 0 {
		return fmt.Errorf("server simulated %d times on a warm store", sims)
	}
	return nil
}

func (s *serveWarm) session(i, opSpan int, ep *endpoint, tr *tracer) error {
	var errs []error
	for k := range s.figs {
		f := &s.figs[k]
		q := f.query()
		q.Set("figure", f.name)
		var grid struct {
			Cells []struct {
				Fingerprint string `json:"fingerprint"`
			} `json:"cells"`
			Warm int `json:"warm"`
		}
		if err := s.getJSON(ep, i, opSpan, tr, spanGrid, "/v1/grid?"+q.Encode(), &grid); err != nil {
			return err
		}
		got := make([]string, len(grid.Cells))
		for j, c := range grid.Cells {
			got[j] = c.Fingerprint
		}
		if !slices.Equal(got, f.cells) || grid.Warm != len(f.cells) {
			errs = append(errs, fmt.Errorf("%s: grid lists %d cells (%d warm), want the %d set-up expanded, all warm",
				f.name, len(got), grid.Warm, len(f.cells)))
		}

		order := opOrder(s.seed, i*len(s.figs)+k, len(f.cells))
		for _, j := range order {
			var cell resultstore.Cell
			if err := s.getJSON(ep, i, opSpan, tr, spanCellGet, "/v1/cells/"+f.cells[j], &cell); err != nil {
				return err
			}
			if cell.Fingerprint != f.cells[j] {
				errs = append(errs, fmt.Errorf("%s: GET cell %s returned cell %s", f.name, f.cells[j], cell.Fingerprint))
			}
		}

		// The identity query names the seeded first cell; the server
		// answers with the first grid cell of that identity.
		id := &f.ids[order[0]]
		want := f.cells[slices.IndexFunc(f.ids, func(c campaign.CellID) bool {
			return c.Workload == id.Workload && c.Point == id.Point && c.Scheme == id.Scheme
		})]
		q.Set("workload", id.Workload)
		q.Set("point", id.Point)
		q.Set("scheme", string(id.Scheme))
		var cell resultstore.Cell
		if err := s.getJSON(ep, i, opSpan, tr, spanCellQuery, "/v1/cells?"+q.Encode(), &cell); err != nil {
			return err
		}
		if cell.Fingerprint != want {
			errs = append(errs, fmt.Errorf("%s: identity query returned cell %s, want %s", f.name, cell.Fingerprint, want))
		}

		body, err := s.get(ep, i, opSpan, tr, spanFigure, "/v1/figures/"+f.name+"?"+f.query().Encode())
		if err != nil {
			return err
		}
		if string(body) != f.body {
			errs = append(errs, fmt.Errorf("%s: served figure differs from experiments.Generate", f.name))
		}
	}
	return errors.Join(errs...)
}

// get fetches one path and reads the whole body, so the connection is
// reused. Traced, the request is a span that the server-side wrappers
// hang their spans under.
func (s *serveWarm) get(ep *endpoint, op, opSpan int, tr *tracer, route, path string) ([]byte, error) {
	id := tr.begin(op, opSpan, route)
	if tr != nil {
		s.at.set(op, id)
	}
	defer tr.end(id)
	resp, err := s.client.Get(ep.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

func (s *serveWarm) getJSON(ep *endpoint, op, opSpan int, tr *tracer, route, path string, v any) error {
	body, err := s.get(ep, op, opSpan, tr, route, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

func (s *serveWarm) layers(ss *spanSet, ops int, out metrics) {
	n := float64(ops)
	perOp := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 / n }
	var requests int
	var self time.Duration
	for _, name := range requestSpans {
		_, c := ss.sum(name)
		requests += c
		self += ss.selfSum(name)
	}
	out.setLayer("serve.requests_per_op", float64(requests)/n)
	for _, r := range []struct{ metric, span string }{
		{"serve.cell_ms", spanCellGet},
		{"serve.cell_query_ms", spanCellQuery},
		{"serve.grid_ms", spanGrid},
		{"serve.figure_ms", spanFigure},
	} {
		out.setLayer(r.metric, median(durationsMS(ss.durations(r.span))))
	}
	out.setLayer("serve.self_ms_per_op", perOp(self))
	cellT, cellN := ss.sum(spanTargetCell)
	lookT, lookN := ss.sum(spanTargetLookup)
	out.setLayer("resultstore.read_ms_per_op", perOp(cellT+lookT))
	out.setLayer("resultstore.reads_per_op", float64(cellN+lookN)/n)
	out.setLayer("resultstore.loose_hits_per_op", float64(s.store.looseHits)/n)
	out.setLayer("resultstore.segment_hits_per_op", float64(s.store.segmentHits)/n)
	out.setLayer("resultstore.misses_per_op", float64(s.store.misses)/n)
	loadT, loads := ss.sum(spanLoad)
	out.setLayer("campaign.loads_per_op", float64(loads)/n)
	out.setLayer("campaign.load_ms_per_op", perOp(loadT))
	var sims int
	for _, name := range simSpans {
		_, c := ss.sum(name)
		sims += c
	}
	out.setLayer("paradet.sims_per_op", float64(sims)/n)
}

func (s *serveWarm) close() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	for _, ep := range []*endpoint{s.plain, s.traced} {
		if ep != nil {
			ep.close()
		}
	}
	os.RemoveAll(s.dir)
}
