package orchestrator

import (
	"strconv"

	"paradet/internal/obs"
)

// Orchestrator metrics. These are fed from decoded worker events — a
// few per second at most — so per-event vec lookups are fine here,
// unlike the campaign/store hot paths.
var (
	obsShardDone = obs.Default().GaugeVec("paradet_orch_shard_cells_done",
		"Latest per-shard done-cell count, from the worker's progress stream.", "shard")
	obsShardTotal = obs.Default().GaugeVec("paradet_orch_shard_cells_total",
		"Latest per-shard total-cell count.", "shard")
	obsShardRate = obs.Default().GaugeVec("paradet_orch_shard_cell_rate",
		"Per-shard cells per second, from the worker's own clock.", "shard")
	obsSlowest = obs.Default().Gauge("paradet_orch_slowest_shard",
		"Index of the unfinished shard with the lowest completion fraction (-1 when all are done).")

	// Pool metrics.
	obsLeases = obs.Default().Counter("paradet_orch_pool_leases_total",
		"Shard attempts started on pool hosts (primaries, relaunches and steals).")
	obsSteals = obs.Default().Counter("paradet_orch_pool_steals_total",
		"Duplicate attempts of the slowest shard launched on idle pool hosts.")
	obsRelaunches = obs.Default().Counter("paradet_orch_pool_relaunches_total",
		"Shards moved to another pool host after a worker failure.")
	obsQuarantines = obs.Default().Counter("paradet_orch_pool_quarantines_total",
		"Pool hosts removed after failed health probes.")
	obsHealthyHosts = obs.Default().Gauge("paradet_orch_pool_healthy_hosts",
		"Pool hosts not quarantined.")
)

func shardLabel(i int) string { return strconv.Itoa(i) }
