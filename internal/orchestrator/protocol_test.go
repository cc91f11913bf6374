package orchestrator

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paradet/internal/campaign"
)

// TestEventGoldenLine pins the progress-line wire format. The field
// names and order are a public interface — pdsweep and any external
// tool parse them — so changing this golden requires bumping
// ProtocolVersion, not editing the test.
func TestEventGoldenLine(t *testing.T) {
	line, err := json.Marshal(Event{
		V:         1,
		Shard:     2,
		Shards:    3,
		Cell:      7,
		Done:      4,
		Total:     9,
		Hit:       true,
		Hits:      3,
		Sims:      1,
		Workload:  "stream",
		Point:     "tableI",
		Scheme:    "protected",
		ElapsedMS: 1500,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"v":1,"shard":2,"shards":3,"cell":7,"done":4,"total":9,"hit":true,` +
		`"hits":3,"sims":1,"workload":"stream","point":"tableI","scheme":"protected","elapsed_ms":1500}`
	if string(line) != want {
		t.Errorf("progress line schema drifted:\n got %s\nwant %s", line, want)
	}
	// Err is omitted when empty and appended when set.
	withErr, _ := json.Marshal(Event{V: 1, Err: "boom"})
	if !strings.HasSuffix(string(withErr), `"elapsed_ms":0,"err":"boom"}`) {
		t.Errorf("err field encoding drifted: %s", withErr)
	}

	// Protocol revision 2 added sim_ms and eta_ms. They slot between
	// elapsed_ms and err, and vanish when zero — the first golden above
	// proves revision-1 lines are still emitted byte-identically.
	v2, err := json.Marshal(Event{
		V: 1, Shard: 2, Shards: 3, Cell: 7, Done: 4, Total: 9,
		Hits: 3, Sims: 1, Workload: "stream", Point: "tableI", Scheme: "protected",
		ElapsedMS: 1500, SimMS: 320, EtaMS: 1875,
	})
	if err != nil {
		t.Fatal(err)
	}
	want2 := `{"v":1,"shard":2,"shards":3,"cell":7,"done":4,"total":9,"hit":false,` +
		`"hits":3,"sims":1,"workload":"stream","point":"tableI","scheme":"protected",` +
		`"elapsed_ms":1500,"sim_ms":320,"eta_ms":1875}`
	if string(v2) != want2 {
		t.Errorf("revision-2 line schema drifted:\n got %s\nwant %s", v2, want2)
	}

	// Protocol revision 3 added fp, between eta_ms and err; it too
	// vanishes when empty, so the two goldens above still hold.
	v3, err := json.Marshal(Event{
		V: 1, Shard: 2, Shards: 3, Cell: 7, Done: 4, Total: 9,
		Hits: 3, Sims: 1, Workload: "stream", Point: "tableI", Scheme: "protected",
		ElapsedMS: 1500, SimMS: 320, EtaMS: 1875, FP: "ab12", Err: "boom",
	})
	if err != nil {
		t.Fatal(err)
	}
	want3 := `{"v":1,"shard":2,"shards":3,"cell":7,"done":4,"total":9,"hit":false,` +
		`"hits":3,"sims":1,"workload":"stream","point":"tableI","scheme":"protected",` +
		`"elapsed_ms":1500,"sim_ms":320,"eta_ms":1875,"fp":"ab12","err":"boom"}`
	if string(v3) != want3 {
		t.Errorf("revision-3 line schema drifted:\n got %s\nwant %s", v3, want3)
	}
}

// TestEmitterSimAndEta pins the emitter-side semantics of the
// revision-2 fields: sim_ms carries the cell's own latency only for
// simulated cells, and eta_ms extrapolates the worker's rate over its
// remaining cells, going silent at both boundaries.
func TestEmitterSimAndEta(t *testing.T) {
	var buf bytes.Buffer
	emit := Emitter(&buf, nil, time.Now().Add(-2*time.Second)) // 2s elapsed
	emit(campaign.Progress{Done: 1, Total: 4, CellSims: 1, Elapsed: 320 * time.Millisecond})
	emit(campaign.Progress{Done: 2, Total: 4, CellSims: 1, CellHits: 1, Cached: true, Elapsed: 5 * time.Millisecond})
	emit(campaign.Progress{Done: 4, Total: 4, CellSims: 3, CellHits: 1, Elapsed: 100 * time.Millisecond})

	var events []Event
	dec := &Decoder{OnEvent: func(e Event) { events = append(events, e) }}
	dec.Write(buf.Bytes())
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	if e := events[0]; e.SimMS != 320 {
		t.Errorf("simulated cell sim_ms = %d, want 320", e.SimMS)
	}
	// eta ≈ elapsed * remaining/done = ~2000ms * 3/1; the emitter uses
	// its own clock so allow slack.
	if e := events[0]; e.EtaMS < 5000 || e.EtaMS > 7000 {
		t.Errorf("eta_ms = %d, want ~6000", e.EtaMS)
	}
	if e := events[1]; e.SimMS != 0 {
		t.Errorf("store-served cell sim_ms = %d, want 0 (omitted)", e.SimMS)
	}
	if e := events[2]; e.EtaMS != 0 {
		t.Errorf("final event eta_ms = %d, want 0 (omitted)", e.EtaMS)
	}
}

// TestEmitterAccumulatesAcrossSweeps drives the emitter with two
// consecutive sweeps (the engine's Done counter resets between them,
// as in experiments -run all) and asserts the emitted totals are
// cumulative and the events round-trip through the decoder.
func TestEmitterAccumulatesAcrossSweeps(t *testing.T) {
	var buf bytes.Buffer
	emit := Emitter(&buf, &campaign.Shard{Index: 1, Count: 2}, time.Now())

	// Sweep one: two cells, one sim then one hit.
	emit(campaign.Progress{Done: 1, Total: 2, Cell: 0, CellSims: 1, Workload: "a", Label: "p", Scheme: "protected", Fingerprint: "f0"})
	emit(campaign.Progress{Done: 2, Total: 2, Cell: 2, CellSims: 1, CellHits: 1, Cached: true, Workload: "b", Label: "p", Scheme: "protected"})
	// Sweep two begins: Done resets to 1.
	emit(campaign.Progress{Done: 1, Total: 3, Cell: 4, CellSims: 1, BaselineSims: 1, Workload: "a", Label: "q", Scheme: "protected",
		Err: errors.New("bad cell")})

	var events []Event
	dec := &Decoder{OnEvent: func(e Event) { events = append(events, e) }}
	if _, err := dec.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("decoded %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Shard != 1 || e.Shards != 2 {
			t.Errorf("event %d shard = %d/%d, want 1/2", i, e.Shard, e.Shards)
		}
		if e.ElapsedMS < 0 {
			t.Errorf("event %d elapsed %d < 0", i, e.ElapsedMS)
		}
	}
	if e := events[0]; e.FP != "f0" {
		t.Errorf("sweep-1 first event fp = %q, want the cell's fingerprint", e.FP)
	}
	if e := events[1]; !e.Hit || e.Done != 2 || e.Total != 2 || e.Hits != 1 || e.Sims != 1 || e.Cell != 2 {
		t.Errorf("sweep-1 final event = %+v", e)
	}
	// The second sweep folds the first into its base: done 2+1,
	// total 2+3, sims 1+2, hits 1+0.
	if e := events[2]; e.Done != 3 || e.Total != 5 || e.Sims != 3 || e.Hits != 1 || e.Err != "bad cell" {
		t.Errorf("cross-sweep accumulation = %+v", e)
	}
}

// TestDecoderInterleavedAndPartial feeds the decoder a worker stream
// in adversarial chunks: protocol lines split mid-JSON, ordinary
// diagnostics interleaved between them, and a final unterminated
// protocol line only recovered by Close.
func TestDecoderInterleavedAndPartial(t *testing.T) {
	e1, _ := json.Marshal(Event{V: 1, Shard: 0, Shards: 2, Done: 1, Total: 4})
	e2, _ := json.Marshal(Event{V: 1, Shard: 0, Shards: 2, Done: 2, Total: 4})
	e3, _ := json.Marshal(Event{V: 1, Shard: 0, Shards: 2, Done: 3, Total: 4})
	stream := string(e1) + "\nplain diagnostic line\r\n" + string(e2) + "\n" +
		`{"v":99,"done":7}` + "\n{not json at all\n" + string(e3) // no trailing newline

	var events []Event
	var lines []string
	dec := &Decoder{
		OnEvent: func(e Event) { events = append(events, e) },
		OnLine:  func(s string) { lines = append(lines, s) },
	}
	// Write in 7-byte chunks so every line arrives fragmented.
	for b := []byte(stream); len(b) > 0; {
		n := 7
		if n > len(b) {
			n = len(b)
		}
		if _, err := dec.Write(b[:n]); err != nil {
			t.Fatal(err)
		}
		b = b[n:]
	}
	if len(events) != 2 {
		t.Fatalf("before Close: %d events, want 2", len(events))
	}
	dec.Close()
	if len(events) != 3 {
		t.Fatalf("after Close: %d events, want 3 (trailing line lost)", len(events))
	}
	for i, e := range events {
		if e.Done != i+1 {
			t.Errorf("event %d done = %d, want %d (order lost)", i, e.Done, i+1)
		}
	}
	// The plain line, the foreign-version line and the junk line all
	// surface as text, not events; the \r is stripped.
	want := []string{"plain diagnostic line", `{"v":99,"done":7}`, "{not json at all"}
	if fmt.Sprint(lines) != fmt.Sprint(want) {
		t.Errorf("plain lines = %q, want %q", lines, want)
	}
}

// TestTailBuffer asserts the stderr tail keeps the newest lines within
// its byte budget, and always at least one.
func TestTailBuffer(t *testing.T) {
	tb := &tailBuffer{max: 24}
	for i := 0; i < 10; i++ {
		tb.add(fmt.Sprintf("line-%d", i))
	}
	got := tb.String()
	if !strings.HasSuffix(got, "line-9") {
		t.Errorf("tail lost the newest line: %q", got)
	}
	if strings.Contains(got, "line-0") || len(got) > 24 {
		t.Errorf("tail did not evict old lines: %q", got)
	}
	one := &tailBuffer{max: 4}
	one.add("a very long single line that exceeds the budget")
	if one.String() == "" {
		t.Error("tail must keep at least one line")
	}
}

// TestTailBufferConcurrent hammers one buffer from several goroutines
// — the shape a pool steal produces, where a shard's primary and its
// duplicate attempts decode stderr concurrently into the shared tail.
// Run under -race this pins the buffer's locking.
func TestTailBufferConcurrent(t *testing.T) {
	tb := &tailBuffer{max: 64}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tb.add(fmt.Sprintf("g%d-line-%d", g, i))
				_ = tb.String()
			}
		}(g)
	}
	wg.Wait()
	if tb.String() == "" {
		t.Error("tail empty after concurrent writes")
	}
}
