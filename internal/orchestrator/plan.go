package orchestrator

import (
	"fmt"
	"strings"
)

// Plan renders the sweep Run would execute — shard-to-host
// assignment, store, steal policy, assembly command — without
// launching anything or creating a single directory. It is what
// `pdsweep -dry-run` prints, so pool configs can be sanity-checked
// cheaply in CI and by hand.
func Plan(o Options) (string, error) {
	if err := o.resolve(); err != nil {
		return "", err
	}
	p := o.Pool
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d shard(s) · retries %d · store %s\n", o.Shards, o.Retries, o.StoreRoot)
	steal := "off"
	if p.Steal {
		steal = fmt.Sprintf("on (eta >= %s, <= %d attempt(s) per shard; first finish wins)", p.minStealEta(), maxAttempts)
	}
	fmt.Fprintf(&b, "pool: %d host(s) · health probe %q x%d, timeout %s · steal %s\n",
		len(p.Hosts), strings.Join(p.probeCommand(), " "), healthProbes, p.healthTimeout(), steal)
	for h, r := range p.Hosts {
		fmt.Fprintf(&b, "  host %d: %s\n", h, r.Name())
	}
	// The initial leases hand shard i to host i; the rest queue for the
	// first host that frees up, so the printed assignment is the plan's
	// starting point, not a fixed binding.
	for i := 0; i < o.Shards; i++ {
		if i < len(p.Hosts) {
			fmt.Fprintf(&b, "  shard %d -> host %d (%s)\n", i, i, p.Hosts[i].Name())
		} else {
			fmt.Fprintf(&b, "  shard %d -> queued (first idle host)\n", i)
		}
	}
	fmt.Fprintf(&b, "assembly (local): %s\n", strings.Join(o.assemblyArgv(), " "))
	return b.String(), nil
}
