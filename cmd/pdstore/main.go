// Command pdstore inspects and maintains campaign result stores
// (internal/resultstore directories written by cmd/experiments and
// cmd/hetsim via -store).
//
// Usage:
//
//	pdstore merge -into merged shard0 shard1 shard2
//	pdstore stats .pdstore
//	pdstore compact .pdstore
//	pdstore compact -older-than 24h -dry-run .pdstore
//	pdstore gc -older-than 720h .pdstore
//	pdstore gc -older-than 720h -dry-run .pdstore
//	pdstore verify .pdstore
//
// merge folds per-shard stores into one: cells missing from the
// destination are copied (out of loose trees and packed segments
// alike), duplicate fingerprints are deduplicated, corrupt cells are
// skipped with a warning, and cross-SchemaVersion stores are refused.
// Re-running the campaign against the merged store with -store then
// assembles the full sweep at zero simulation cost.
//
// compact batches cold loose cells into one packed, checksummed
// segment file under segments/ — the cure for one-file-per-cell trees
// that crawl on network filesystems at paper scale — deleting the
// loose copies only after the published segment re-verifies. Reads
// fall through loose cells to segments transparently and writes still
// land loose, so compaction never races live sweeps.
//
// stats reports the per-scheme footprint (cells, fault cells, bytes)
// across both layouts, plus segment health. gc ages out cells not
// written since -older-than ago (whole segments once every record in
// them is that old); everything it removes simply re-simulates on next
// use. verify checks every loose cell's fingerprint against its
// content and every segment's footer and per-record checksums,
// exiting 1 on any inconsistency.
//
// Subcommands never create a store: they operate on directories some
// campaign already wrote (only merge's -into destination is created),
// and -dry-run passes are strictly read-only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"paradet/internal/resultstore"
)

const usage = `pdstore maintains campaign result stores (-store directories).

Usage:

  pdstore merge -into DIR SRC [SRC...]   fold source stores into DIR
  pdstore stats [-json] DIR              per-scheme footprint + segment health
                                         (-json: one schema-pinned JSON document)
  pdstore compact [-older-than DUR] [-dry-run] DIR
                                         pack cold loose cells into a segment file
  pdstore gc -older-than DUR [-dry-run] DIR
                                         age out cells (e.g. -older-than 720h)
  pdstore verify DIR                     check cells and segments; exit 1 on damage

Examples (sharding a sweep across 3 hosts):

  experiments -run fig7 -shard 0/3 -store shard0    # on host 0, etc.
  pdstore merge -into merged shard0 shard1 shard2
  experiments -run fig7 -store merged               # assembles: zero simulations
  pdstore compact merged                            # pack the tree for archival reuse
`

func main() {
	flag.Usage = func() { fmt.Fprint(os.Stderr, usage) }
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "merge":
		err = runMerge(args[1:])
	case "stats":
		err = runStats(args[1:])
	case "compact":
		err = runCompact(args[1:])
	case "gc":
		err = runGC(args[1:])
	case "verify":
		err = runVerify(args[1:])
	case "help", "-h", "--help":
		fmt.Print(usage)
	default:
		fmt.Fprintf(os.Stderr, "pdstore: unknown subcommand %q\n\n%s", args[0], usage)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pdstore:", err)
		os.Exit(1)
	}
}

// open opens an existing store, refusing to invent one: every pdstore
// subcommand except the merge destination operates on stores some
// campaign already wrote. OpenExisting also guarantees the open itself
// writes nothing, so read-only subcommands (stats, verify, -dry-run
// passes) leave no trace on disk.
func open(dir string) (*resultstore.Store, error) {
	return resultstore.OpenExisting(dir)
}

func runMerge(args []string) error {
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	into := fs.String("into", "", "destination store directory (created if missing)")
	fs.Parse(args)
	if *into == "" || fs.NArg() == 0 {
		return fmt.Errorf("merge: want -into DIR and at least one source store")
	}
	dst, err := resultstore.Open(*into)
	if err != nil {
		return err
	}
	srcs := make([]*resultstore.Store, 0, fs.NArg())
	for _, dir := range fs.Args() {
		src, err := open(dir)
		if err != nil {
			return err
		}
		srcs = append(srcs, src)
	}
	st, err := resultstore.Merge(dst, srcs...)
	for _, w := range st.Warnings {
		fmt.Fprintln(os.Stderr, "pdstore: warning:", w)
	}
	if err != nil {
		return err
	}
	fmt.Println(st)
	return nil
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the footprint as one JSON document (schema-pinned; for scripts and CI)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("stats: want exactly one store directory")
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	fp, err := s.Footprint()
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		return enc.Encode(resultstore.StatsReport{Schema: resultstore.StatsSchemaVersion, Dir: s.Dir(), Footprint: fp})
	}
	fmt.Printf("%s: %d cells, %.1f KiB\n", s.Dir(), fp.Cells, float64(fp.Bytes)/1024)
	fmt.Printf("  %-14s %8s %8s %10s\n", "scheme", "cells", "faults", "KiB")
	for _, row := range fp.Schemes {
		fmt.Printf("  %-14s %8d %8d %10.1f\n", row.Scheme, row.Cells, row.Faults, float64(row.Bytes)/1024)
	}
	if fp.Segments > 0 || fp.BrokenSegments > 0 {
		fmt.Printf("  layout: %d loose, %d packed in %d segment(s) (%.1f KiB on disk)\n",
			fp.LooseCells, fp.SegmentCells, fp.Segments, float64(fp.SegmentBytes)/1024)
	}
	if fp.Corrupt > 0 {
		fmt.Printf("  corrupt: %d unreadable cell file(s) (run verify for detail)\n", fp.Corrupt)
	}
	if fp.BrokenSegments > 0 {
		fmt.Printf("  corrupt: %d broken segment file(s) (run verify for detail)\n", fp.BrokenSegments)
	}
	return nil
}

func runCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	olderThan := fs.Duration("older-than", 0, "pack only cells not written for this long (default: pack everything)")
	dry := fs.Bool("dry-run", false, "report what would be packed without touching the store")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("compact: want exactly one store directory")
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	opts := resultstore.CompactOptions{DryRun: *dry}
	if *olderThan > 0 {
		opts.OlderThan = time.Now().Add(-*olderThan)
	}
	st, err := s.Compact(opts)
	if err != nil {
		return err
	}
	if *dry {
		fmt.Printf("%s: would pack %d of %d loose cell(s) (%d duplicate, %d hot, %d corrupt left loose)\n",
			s.Dir(), st.Packed, st.Loose, st.Dups, st.Hot, st.Corrupt)
		return nil
	}
	fmt.Printf("%s: %s\n", s.Dir(), st)
	return nil
}

func runGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	olderThan := fs.Duration("older-than", 0, "age out cells not written for this long (e.g. 720h = 30 days)")
	dry := fs.Bool("dry-run", false, "report what would be removed without touching the store")
	fs.Parse(args)
	if fs.NArg() != 1 || *olderThan <= 0 {
		return fmt.Errorf("gc: want -older-than DUR and exactly one store directory")
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	st, err := s.GC(time.Now().Add(-*olderThan), *dry)
	if err != nil {
		return err
	}
	verb := "removed"
	if *dry {
		verb = "would remove"
	}
	fmt.Printf("%s: scanned %d cells, %s %d (%.1f KiB), kept %d",
		s.Dir(), st.Scanned, verb, st.Removed, float64(st.RemovedBytes)/1024, st.Kept)
	if st.SegmentsRemoved > 0 {
		fmt.Printf(", %d whole segment(s)", st.SegmentsRemoved)
	}
	fmt.Println()
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("verify: want exactly one store directory")
	}
	s, err := open(fs.Arg(0))
	if err != nil {
		return err
	}
	rep, err := s.Verify()
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d cells, %d consistent\n", s.Dir(), rep.Cells, rep.Good)
	for _, p := range rep.Problems {
		fmt.Println("  problem:", p)
	}
	if !rep.OK() {
		return fmt.Errorf("verify: %d problem(s)", len(rep.Problems))
	}
	return nil
}
