package orchestrator

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"paradet/internal/obs/telemetry"
)

// TestWorkerArgvRoundTrip renders the argv of a shard attempt and the
// assembly pass over a campaign command that carries pdsweep's
// telemetry flags, and parses each back with the worker-flag table:
// the orchestrator and the workers agree on every flag it writes, and
// both name the one store.
func TestWorkerArgvRoundTrip(t *testing.T) {
	fwd, err := WorkerFlags{Telemetry: true, TelemetryInterval: 500}.TelemetryArgs()
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	o := Options{Argv: append([]string{"worker"}, fwd...), Shards: 4, StoreRoot: root, Pool: fakePool(1, brokenWorker{})}
	if err := o.resolve(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		argv []string
		want WorkerFlags
	}{
		{"shard", o.shardArgv(3), WorkerFlags{Shard: "3/4",
			Store: root, ProgressJSON: true, Telemetry: true, TelemetryInterval: 500}},
		{"assembly", o.assemblyArgv(), WorkerFlags{
			Store: root, ProgressJSON: true, Telemetry: true, TelemetryInterval: 500}},
	} {
		got, err := parseWorkerArgv(tc.argv)
		if err != nil {
			t.Errorf("%s: %q does not parse: %v", tc.name, tc.argv, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: %q parses to %+v, want %+v", tc.name, tc.argv, got, tc.want)
			continue
		}
		opts, err := got.Campaign(io.Discard)
		if err != nil {
			t.Errorf("%s: campaign options: %v", tc.name, err)
			continue
		}
		if opts.Store == nil || opts.Store.Dir() != tc.want.Store || opts.Progress == nil {
			t.Errorf("%s: campaign options lost the store or the emitter: %+v", tc.name, opts)
		}
		if opts.Telemetry == nil || opts.Telemetry.Interval != 500 ||
			opts.Telemetry.Dir != filepath.Join(tc.want.Store, telemetry.SidecarDirName) {
			t.Errorf("%s: telemetry options = %+v", tc.name, opts.Telemetry)
		}
		wantShard := tc.want.Shard != ""
		if (opts.Shard != nil) != wantShard ||
			wantShard && (opts.Shard.Index != 3 || opts.Shard.Count != 4) {
			t.Errorf("%s: shard = %+v", tc.name, opts.Shard)
		}
	}
}

// TestWorkerFlagsValidation pins the worker CLIs' refusals.
func TestWorkerFlagsValidation(t *testing.T) {
	for _, tc := range []struct {
		w    WorkerFlags
		want string
	}{
		{WorkerFlags{TelemetryInterval: 100}, "-telemetry-interval needs -telemetry"},
	} {
		if _, err := tc.w.Campaign(io.Discard); err == nil || err.Error() != tc.want {
			t.Errorf("%+v: error %v, want %q", tc.w, err, tc.want)
		}
	}
	if _, err := (WorkerFlags{TelemetryInterval: 100}).TelemetryArgs(); err == nil || err.Error() != "-telemetry-interval needs -telemetry" {
		t.Errorf("forwarding an interval without telemetry: error %v", err)
	}
	bad := WorkerFlags{Shard: "2/2"}
	if _, err := bad.Campaign(io.Discard); err == nil {
		t.Errorf("%+v accepted", bad)
	}
}

// TestRegisterSweep pins the subset pdsweep declares and their
// defaults.
func TestRegisterSweep(t *testing.T) {
	fs := flag.NewFlagSet("pdsweep", flag.ContinueOnError)
	var w WorkerFlags
	w.RegisterSweep(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name+"="+f.DefValue) })
	want := []string{"telemetry=false", "telemetry-interval=0"}
	if len(names) != len(want) {
		t.Fatalf("pdsweep worker flags = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("pdsweep worker flags = %v, want %v", names, want)
		}
	}
}
