package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// TestTraceSchemaValid builds a trace with overlapping slices and
// validates the output against the trace-event schema: a top-level
// traceEvents array, every slice a "ph":"X" event with name/ts/dur/
// pid/tid, metadata as "ph":"M" process_name events, and no two
// overlapping slices sharing a (pid, tid) lane.
func TestTraceSchemaValid(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName(0, "shard 0")
	tr.ProcessName(1, "shard 1")
	tr.ProcessName(1, "ignored rename")
	tr.Slice(0, "cell 0", 0, 100, map[string]any{"workload": "stream"})
	tr.Slice(0, "cell 1", 50, 100, nil) // overlaps cell 0 -> new lane
	tr.Slice(0, "cell 2", 100, 50, nil) // fits lane 0 again
	tr.Slice(1, "cell 3", 10, 0, nil)   // zero-width (store hit)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   *int64         `json:"ts"`
			Dur  *int64         `json:"dur"`
			PID  *int           `json:"pid"`
			TID  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	type lane struct{ pid, tid int }
	type span struct{ start, end int64 }
	busy := map[lane][]span{}
	slices, metas := 0, 0
	names := map[string]bool{}
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			metas++
			if e.Name != "process_name" || e.Args["name"] == "" {
				t.Errorf("event %d: bad metadata %+v", i, e)
			}
		case "X":
			slices++
			if e.Name == "" || e.TS == nil || e.Dur == nil || e.PID == nil || e.TID == nil {
				t.Fatalf("event %d: slice missing required fields: %+v", i, e)
			}
			if *e.TS < 0 || *e.Dur < 0 {
				t.Errorf("event %d: negative ts/dur", i)
			}
			l := lane{*e.PID, *e.TID}
			s := span{*e.TS, *e.TS + *e.Dur}
			for _, o := range busy[l] {
				if s.start < o.end && o.start < s.end {
					t.Errorf("slices overlap in lane %+v: %+v vs %+v", l, s, o)
				}
			}
			busy[l] = append(busy[l], s)
			names[e.Name] = true
		default:
			t.Errorf("event %d: unexpected ph %q", i, e.Ph)
		}
	}
	if n, samples := tr.Counts(); slices != 4 || n != 4 || samples != 0 {
		t.Errorf("slices = %d (Counts %d, %d), want 4 slices and 0 counter samples", slices, n, samples)
	}
	if metas != 2 {
		t.Errorf("metadata events = %d, want 2 (rename must be ignored)", metas)
	}
	if f.TraceEvents[0].Args["name"] == "ignored rename" {
		t.Error("process rename overrode the first name")
	}
	if !names["cell 3"] {
		t.Error("zero-width slice was dropped — counts must include store hits")
	}
}

// TestCounterTrackSchemaGolden pins the exact bytes of a trace
// carrying Perfetto counter tracks ("ph":"C"): map keys marshal
// sorted, so the output is deterministic, and any schema drift (field
// rename, indent change, event reordering) breaks this golden.
// The shape is what ui.perfetto.dev loads as per-process counter
// tracks with stacked series per args key.
func TestCounterTrackSchemaGolden(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName(7, "telemetry stream/p2 deadbeef0123")
	tr.Counter(7, "ipc", 125, map[string]float64{"ipc": 1.5})
	tr.Counter(7, "stall cycles", 125, map[string]float64{"logfull": 3, "icache": 1, "rename": 0})
	tr.Counter(7, "occupancy", 250, map[string]float64{"rob": 38, "iq": 12, "sq": 4, "fetchq": 9})
	tr.Counter(7, "ipc", -5, nil) // negative ts clamps, nil values legal
	if slices, samples := tr.Counts(); slices != 0 || samples != 4 {
		t.Errorf("Counts = %d slices, %d counter samples; want 0 and 4", slices, samples)
	}

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	const golden = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 7,
   "tid": 0,
   "args": {
    "name": "telemetry stream/p2 deadbeef0123"
   }
  },
  {
   "name": "ipc",
   "ph": "C",
   "ts": 0,
   "pid": 7,
   "tid": 0
  },
  {
   "name": "ipc",
   "ph": "C",
   "ts": 125,
   "pid": 7,
   "tid": 0,
   "args": {
    "ipc": 1.5
   }
  },
  {
   "name": "stall cycles",
   "ph": "C",
   "ts": 125,
   "pid": 7,
   "tid": 0,
   "args": {
    "icache": 1,
    "logfull": 3,
    "rename": 0
   }
  },
  {
   "name": "occupancy",
   "ph": "C",
   "ts": 250,
   "pid": 7,
   "tid": 0,
   "args": {
    "fetchq": 9,
    "iq": 12,
    "rob": 38,
    "sq": 4
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != golden {
		t.Errorf("counter-track JSON drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, golden)
	}
}

// TestTraceCountsSlicesAndSamples asserts Counts tells the two kinds
// of event apart in a trace that holds both, like a sweep trace with
// one simulated cell and its telemetry counter tracks.
func TestTraceCountsSlicesAndSamples(t *testing.T) {
	tr := NewTrace()
	tr.ProcessName(0, "shard 0")
	tr.Slice(0, "stream/tableI[protected]", 0, 40, nil)
	for i := 0; i < 21; i++ {
		tr.Counter(1, "ipc", int64(i*10), map[string]float64{"ipc": 1})
	}
	tr.Slice(0, "bitcount/tableI[protected]", 10, 0, nil)
	if slices, samples := tr.Counts(); slices != 2 || samples != 21 {
		t.Errorf("Counts = %d slices, %d counter samples; want 2 and 21", slices, samples)
	}
}

// TestTraceConcurrent exercises the lane allocator under concurrent
// Slice calls (run with -race in CI).
func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Slice(w%3, "c", int64(i*10), 25, nil)
			}
		}(w)
	}
	wg.Wait()
	if n, _ := tr.Counts(); n != 8*200 {
		t.Fatalf("lost slices: %d != %d", n, 8*200)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("concurrent trace output is not valid JSON")
	}
}
