// Command pdreport analyzes interval telemetry sidecars written by
// campaign runs (-telemetry on experiments, hetsim or pdsweep): it
// reconciles every sidecar's sample accounting against its header
// totals, prints a per-cell stall attribution table ranked
// worst-first by log-full stall fraction (the straggler ranking —
// cells whose commit is gated on the load-store log are the ones a
// bigger log or more checkers would speed up), and breaks the worst
// cell into equal-instruction phases.
//
// Usage:
//
//	pdreport -store .pdstore            # reads .pdstore/telemetry
//	pdreport -dir /tmp/sweep/telemetry   # a pdsweep -store-root
//	pdreport -store .pdstore -top 5     # only the 5 worst cells
//	pdreport -store .pdstore -phases 8 -all
//	pdreport -store .pdstore -top 3 -all   # phase breakdowns for the 3 worst
//
// Output is deterministic for a given sidecar directory. A sidecar
// that fails reconciliation (sample counts inconsistent with its
// committed-instruction totals) is reported on stderr and makes the
// command exit 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"paradet/internal/obs/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pdreport", flag.ContinueOnError)
	fs.SetOutput(stderr)
	store := fs.String("store", "", "result store directory; sidecars are read from <store>/telemetry")
	dir := fs.String("dir", "", "sidecar directory (overrides -store)")
	top := fs.Int("top", 0, "print only the N worst cells (0 = all)")
	phases := fs.Int("phases", 4, "windows in each phase breakdown")
	all := fs.Bool("all", false, "phase breakdown for every shown cell (bounded by -top), not just the worst")
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "pdreport:", err)
		return 1
	}

	src := *dir
	if src == "" {
		if *store == "" {
			return fail(fmt.Errorf("need -store or -dir (where are the sidecars?)"))
		}
		src = filepath.Join(*store, telemetry.SidecarDirName)
	}
	series, err := telemetry.LoadDir(src)
	if err != nil {
		return fail(err)
	}
	if len(series) == 0 {
		return fail(fmt.Errorf("no sidecars under %s (was the campaign run with -telemetry?)", src))
	}

	// Reconcile everything first: a sidecar whose sample accounting
	// disagrees with its own totals is not worth attributing.
	bad := 0
	attrs := make([]telemetry.Attribution, 0, len(series))
	byFP := make(map[string]*telemetry.Series, len(series))
	for _, s := range series {
		if err := telemetry.Reconcile(s); err != nil {
			fmt.Fprintln(stderr, "pdreport:", err)
			bad++
			continue
		}
		attrs = append(attrs, telemetry.Attribute(s))
		byFP[s.Header.Fingerprint] = s
	}
	telemetry.RankByLogFull(attrs)

	fmt.Fprintf(stdout, "telemetry: %d cell(s) under %s", len(series), src)
	if bad > 0 {
		fmt.Fprintf(stdout, " (%d failed reconciliation)", bad)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout)

	shown := attrs
	if *top > 0 && *top < len(shown) {
		shown = shown[:*top]
	}
	fmt.Fprintln(stdout, "stall attribution, worst-first by log-full fraction:")
	fmt.Fprintf(stdout, "  %-28s %-12s %10s %6s %9s %7s %8s %8s %9s\n",
		"cell", "fp", "instrs", "IPC", "logfull%", "ckpt%", "icache%", "rename%", "mispr/ki")
	for i := range shown {
		a := &shown[i]
		fmt.Fprintf(stdout, "  %-28s %-12s %10d %6.2f %9.2f %7.2f %8.2f %8.2f %9.2f\n",
			cellName(a), shortFP(a.Fingerprint), a.Instructions, a.IPC,
			100*a.LogFullFrac, 100*a.CheckpointFrac, 100*a.ICacheFrac, 100*a.RenameFrac,
			a.MispredictPerKI)
	}
	fmt.Fprintln(stdout)

	// Phase breakdowns cover the same cells as the table above: the
	// worst, or with -all every *shown* cell — `-top` bounds both.
	for i := range shown {
		a := &shown[i]
		if !*all && i > 0 {
			break
		}
		s := byFP[a.Fingerprint]
		ph := telemetry.Phases(s, *phases)
		if len(ph) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "phases of %s (%s), %d window(s):\n", cellName(a), shortFP(a.Fingerprint), len(ph))
		fmt.Fprintf(stdout, "  %22s %6s %9s %7s %8s %8s %8s %7s %7s\n",
			"instrs", "IPC", "logfull%", "ckpt%", "icache%", "rename%", "rob", "seg%", "chk")
		for _, p := range ph {
			fmt.Fprintf(stdout, "  %10d-%-11d %6.2f %9.2f %7.2f %8.2f %8.2f %8.1f %7.1f %7.1f\n",
				p.From, p.To, p.IPC, 100*p.LogFullFrac, 100*p.CkptFrac,
				100*p.ICacheFrac, 100*p.RenameFrac, p.MeanROB, 100*p.MeanSeg, p.MeanCheckers)
		}
		fmt.Fprintln(stdout)
	}

	if bad > 0 {
		return fail(fmt.Errorf("%d sidecar(s) failed reconciliation", bad))
	}
	return 0
}

// cellName renders one cell's identity: workload/point[scheme].
func cellName(a *telemetry.Attribution) string {
	name := a.Workload
	if a.Point != "" {
		name += "/" + a.Point
	}
	if a.Scheme != "" {
		name += "[" + a.Scheme + "]"
	}
	return name
}

func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}
