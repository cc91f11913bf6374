package resultstore

import "paradet/internal/obs"

// Store metrics, registered once at package init with children
// pre-resolved so Get/Put pay a single atomic per event. The read
// counter distinguishes the two layouts a hit can come from, which is
// the number that tells an operator whether compaction is pulling its
// weight. The decode counter splits the judgements of stored copies
// that decoded JSON from those that reused an earlier verdict on the
// same bytes.
var (
	obsReads        = obs.Default().CounterVec("paradet_store_reads_total", "Store cell reads, by result.", "result")
	obsReadLoose    = obsReads.With("hit_loose")
	obsReadSegment  = obsReads.With("hit_segment")
	obsReadMiss     = obsReads.With("miss")
	obsDecodes      = obs.Default().CounterVec("paradet_store_decodes_total", "Stored cell copies the store judged by decoding them (json) or by an earlier verdict on the same bytes, refusals included (memo).", "result")
	obsDecodeJSON   = obsDecodes.With("json")
	obsDecodeMemo   = obsDecodes.With("memo")
	obsWrites       = obs.Default().Counter("paradet_store_writes_total", "Cells written to the store.")
	obsWriteSecs    = obs.Default().Histogram("paradet_store_write_seconds", "Cell write latency (marshal, atomic rename), seconds.", obs.DurationBuckets)
	obsCompactSecs  = obs.Default().Histogram("paradet_store_compact_seconds", "Compaction pass latency, seconds.", obs.DurationBuckets)
	obsCompactCells = obs.Default().Counter("paradet_store_compact_cells_total", "Loose cells packed into segments by compaction.")
)
