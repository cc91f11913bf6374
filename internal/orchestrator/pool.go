package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"paradet/internal/obs"
)

// A Pool is the orchestrator's scheduler: it owns a set of hosts,
// leases them to shards one at a time, health-checks every host
// (before its first lease and again after any worker failure),
// quarantines hosts that keep failing probes, and moves a dead host's
// shard to another healthy host — the sweep's store makes the move a
// resume, not a redo. With Steal set, a host that goes idle with no
// shard left to start launches a duplicate attempt of the slowest
// unfinished shard (per Snapshot.Slowest and the worker's own ETA).
// Every attempt of a shard runs the same command against the same
// store, so a duplicate serves the cells its sibling already stored as
// hits and simulates only the rest. Whichever attempt finishes first
// wins and the loser is cancelled; the final assembly is
// byte-identical to a single-host run.
type Pool struct {
	// Hosts are the leasable workers. Each host runs at most one shard
	// attempt at a time; list a host twice to run two.
	Hosts []Runner
	// HealthTimeout bounds one liveness probe (0 = 5s).
	HealthTimeout time.Duration
	// Steal enables duplicate attempts of the slowest shard on idle
	// hosts.
	Steal bool

	// probeArgv, stealMinEta and sleep are test seams: the liveness
	// command (nil = {"true"}), the smallest ETA worth stealing (0 =
	// 2s), and the backoff clock (nil = timer-backed, context-aware).
	probeArgv   []string
	stealMinEta time.Duration
	sleep       func(ctx context.Context, d time.Duration)
}

const (
	// healthProbes consecutive probe failures quarantine a host, with
	// healthBackoff between them.
	healthProbes  = 2
	healthBackoff = 500 * time.Millisecond
	// maxAttempts caps the launches per shard the steal policy may
	// reach, bounding the hosts one shard can occupy: the primary plus
	// two duplicates.
	maxAttempts = 3
)

func (p *Pool) healthTimeout() time.Duration {
	if p.HealthTimeout > 0 {
		return p.HealthTimeout
	}
	return 5 * time.Second
}

// probeCommand is the cheap liveness command run through a host's
// runner. It must exit 0 quickly on a healthy host and is never given
// the campaign argv.
func (p *Pool) probeCommand() []string {
	if len(p.probeArgv) > 0 {
		return p.probeArgv
	}
	return []string{"true"}
}

// minStealEta is the smallest worker-reported ETA worth stealing:
// duplicating a shard that is nearly done wastes a host on work its
// sibling is about to store anyway.
func (p *Pool) minStealEta() time.Duration {
	if p.stealMinEta > 0 {
		return p.stealMinEta
	}
	return 2 * time.Second
}

func (p *Pool) sleepFn(ctx context.Context, d time.Duration) {
	if p.sleep != nil {
		p.sleep(ctx, d)
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// probeHost runs the liveness command up to healthProbes times with
// backoff. A nil return means the host answered; an error means it
// should be quarantined.
func (p *Pool) probeHost(ctx context.Context, r Runner) error {
	var err error
	for i := 0; i < healthProbes; i++ {
		if i > 0 {
			p.sleepFn(ctx, healthBackoff)
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		pctx, cancel := context.WithTimeout(ctx, p.healthTimeout())
		err = r.Run(pctx, p.probeCommand(), io.Discard, io.Discard)
		cancel()
		if err == nil {
			return nil
		}
	}
	return fmt.Errorf("health probe failed %d time(s): %w", healthProbes, err)
}

// Attempt is one launch of one shard: where it ran and how it ended.
// The slice of these per shard is the attempt history carried into
// retry-exhaustion errors and the final Report.
type Attempt struct {
	// N is the launch ordinal for the shard (1 = primary).
	N int
	// Runner names the host the attempt ran on.
	Runner string
	// Stolen marks duplicate attempts launched by the steal policy.
	Stolen bool
	// Err is how the attempt ended ("" = finished and won).
	Err string
}

func (a Attempt) String() string {
	s := fmt.Sprintf("attempt %d on %s", a.N, a.Runner)
	if a.Stolen {
		s += " [stolen]"
	}
	if a.Err != "" {
		s += ": " + a.Err
	} else {
		s += ": ok"
	}
	return s
}

// HostReport is one pool host's final accounting.
type HostReport struct {
	// Host names the runner.
	Host string
	// Leases counts shard attempts started on the host.
	Leases int
	// Failures counts worker exits with an error (probe failures not
	// included).
	Failures int
	// Quarantined marks hosts removed after failed health probes.
	Quarantined bool
}

// PoolReport summarises the host scheduling of one sweep.
type PoolReport struct {
	// Hosts holds one entry per pool host, in Pool.Hosts order.
	Hosts []HostReport
	// Leases totals shard attempts started across all hosts.
	Leases int
	// Steals counts duplicate attempts launched on idle hosts;
	// StolenWins counts shards whose winning attempt was a duplicate.
	Steals     int
	StolenWins int
	// Relaunches counts shards moved to a (possibly different) host
	// after a worker failure.
	Relaunches int
	// Quarantined counts hosts removed by the health checker.
	Quarantined int
}

// attemptResult is one finished (or refused) launch, reported back to
// the scheduler loop.
type attemptResult struct {
	shard, host, attempt int
	ord                  int // launch ordinal for the shard, fixed at launch
	stolen               bool
	err                  error
	probeErr             error // host never answered; nothing ran
}

// pendingWork is a shard waiting for a host. attempt identifies the
// attempt's progress stream — a relaunch continues the failed
// attempt's.
type pendingWork struct {
	shard, attempt int
	lastHost       int // host of the failed attempt (-1 = none): prefer a different one
}

type hostState struct {
	probed      bool // passed a probe since its last failure
	quarantined bool
	busy        bool
}

type shardState struct {
	done     bool
	failures int // worker failures charged against Options.Retries
	launched int // attempts ever started (relaunches and steals included)
	dupes    int // duplicate (stolen) attempts ever started
	active   map[int]context.CancelFunc
	history  []Attempt
	tail     *tailBuffer
}

// run schedules every shard over the pool's hosts and fills rep's
// shard entries (and rep.Pool). Fatal errors (a shard exhausting its
// retry budget, every host quarantined) are returned after all active
// attempts have been cancelled and drained; rep.Shards carries the
// per-shard detail either way.
func (p *Pool) run(ctx context.Context, o *Options, agg *aggregator, stderr io.Writer, rep *Report) error {
	ctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()

	hosts := make([]hostState, len(p.Hosts))
	shards := make([]shardState, o.Shards)
	pool := &rep.Pool
	pool.Hosts = make([]HostReport, len(p.Hosts))
	for i := range p.Hosts {
		pool.Hosts[i].Host = p.Hosts[i].Name()
	}
	for i := range shards {
		shards[i].active = make(map[int]context.CancelFunc)
		shards[i].tail = &tailBuffer{max: tailBytes}
	}
	obsHealthyHosts.Set(float64(len(p.Hosts)))

	pending := make([]pendingWork, 0, o.Shards)
	for i := 0; i < o.Shards; i++ {
		pending = append(pending, pendingWork{shard: i, lastHost: -1})
	}
	results := make(chan attemptResult)
	// kick wakes the scheduler when new progress (hence new ETA data)
	// arrives, so a parked idle host can reconsider stealing without
	// polling a clock.
	kick := make(chan struct{}, 1)
	agg.setKick(kick)
	defer agg.setKick(nil)

	launch := func(h int, w pendingWork, stolen bool) {
		hosts[h].busy = true
		st := &shards[w.shard]
		st.launched++
		ord := st.launched
		if stolen {
			st.dupes++
		}
		actx, cancel := context.WithCancel(ctx)
		st.active[w.attempt] = cancel
		pool.Leases++
		pool.Hosts[h].Leases++
		obsLeases.Inc()
		name := p.Hosts[h].Name()
		if stolen {
			pool.Steals++
			obsSteals.Inc()
			agg.addSteal()
			fmt.Fprintf(stderr, "orchestrator: stealing shard %d onto idle host %s\n", w.shard, name)
		}
		if obs.Enabled() {
			ev := "lease"
			if stolen {
				ev = "steal"
			}
			obs.Emit(obs.Entry{Event: ev, Shard: obs.Int(w.shard), Count: w.attempt + 1, Detail: name})
		}
		needProbe := !hosts[h].probed
		argv := o.shardArgv(w.shard)
		go func() {
			if needProbe {
				if err := p.probeHost(actx, p.Hosts[h]); err != nil {
					cancel()
					results <- attemptResult{shard: w.shard, host: h, attempt: w.attempt, ord: ord, stolen: stolen, probeErr: err}
					return
				}
			}
			dec := &Decoder{
				OnEvent: func(e Event) { agg.observeAttempt(w.shard, w.attempt, e) },
				OnLine:  st.tail.add,
			}
			err := p.Hosts[h].Run(actx, argv, io.Discard, dec)
			dec.Close()
			cancel()
			results <- attemptResult{shard: w.shard, host: h, attempt: w.attempt, ord: ord, stolen: stolen, err: err}
		}()
	}

	// stealTarget picks the shard an idle host should duplicate: the
	// aggregate's slowest unfinished shard, if it is actually running
	// (a pending shard needs assignment, not theft), reports an ETA
	// worth the duplicated work, and has attempt budget left.
	stealTarget := func() (pendingWork, bool) {
		if !p.Steal {
			return pendingWork{}, false
		}
		snap := agg.snapshot()
		s := snap.Slowest
		if s < 0 || shards[s].done || len(shards[s].active) == 0 {
			return pendingWork{}, false
		}
		if shards[s].launched >= maxAttempts {
			return pendingWork{}, false
		}
		if snap.Shards[s].EtaMS < p.minStealEta().Milliseconds() {
			return pendingWork{}, false
		}
		// Duplicate attempt ids count up from 1; the primary and its
		// relaunches share attempt 0.
		return pendingWork{shard: s, attempt: shards[s].dupes + 1, lastHost: -1}, true
	}

	// freeHosts lists dispatchable hosts, pushing avoid (the host the
	// work just failed on) to the back so a moved shard prefers a
	// different host when one is available.
	freeHosts := func(avoid int) []int {
		var free []int
		for h := range hosts {
			if !hosts[h].busy && !hosts[h].quarantined {
				free = append(free, h)
			}
		}
		sort.SliceStable(free, func(i, j int) bool { return free[i] != avoid && free[j] == avoid })
		return free
	}

	unfinished := o.Shards
	var fatal error
	shardFatal := false // fatal is a shard's own error, already in rep.Shards
	dispatch := func() {
		for len(pending) > 0 {
			w := pending[0]
			free := freeHosts(w.lastHost)
			if len(free) == 0 {
				return
			}
			pending = pending[1:]
			launch(free[0], w, false)
		}
		for {
			free := freeHosts(-1)
			if len(free) == 0 {
				return
			}
			w, ok := stealTarget()
			if !ok {
				return
			}
			launch(free[0], w, true)
		}
	}

	inFlight := func() int {
		n := 0
		for i := range shards {
			n += len(shards[i].active)
		}
		return n
	}

	// The loop outlives the last finished shard: cancelled losing
	// attempts must drain through results (their goroutines block on
	// the unbuffered channel, and their cancellations belong in the
	// attempt history).
	done := ctx.Done()
	for unfinished > 0 || inFlight() > 0 {
		if fatal == nil && ctx.Err() == nil && unfinished > 0 {
			dispatch()
		}
		if inFlight() == 0 {
			if fatal != nil || ctx.Err() != nil {
				break
			}
			if len(pending) > 0 {
				// Nothing running, work waiting, nothing dispatchable:
				// every host is quarantined.
				fatal = fmt.Errorf("orchestrator: %d shard(s) pending but all %d pool host(s) quarantined", len(pending), len(p.Hosts))
				break
			}
			// No pending work, nothing running, shards unfinished: can
			// only happen on a logic error; fail loudly over hanging.
			fatal = fmt.Errorf("orchestrator: pool stalled with %d shard(s) unfinished", unfinished)
			break
		}
		select {
		case r := <-results:
			st := &shards[r.shard]
			hosts[r.host].busy = false
			delete(st.active, r.attempt)
			switch {
			case r.probeErr != nil:
				// No worker ran, so no retry is charged and the lease
				// is returned uncounted either way.
				pool.Leases--
				pool.Hosts[r.host].Leases--
				if errors.Is(r.probeErr, context.Canceled) {
					// The attempt was cancelled (a sibling won, or the
					// sweep is shutting down) while the host was still
					// probing or in backoff: the probe proved nothing
					// about the host, so record the cancellation and
					// leave the host healthy.
					st.history = append(st.history, Attempt{N: r.ord, Runner: p.Hosts[r.host].Name(),
						Stolen: r.stolen, Err: "cancelled before launch"})
					if !r.stolen && !st.done {
						pending = append([]pendingWork{{shard: r.shard, attempt: r.attempt, lastHost: r.host}}, pending...)
					}
					break
				}
				// The host never answered: quarantine it and put the
				// work back.
				hosts[r.host].quarantined = true
				pool.Hosts[r.host].Quarantined = true
				pool.Quarantined++
				obsQuarantines.Inc()
				obsHealthyHosts.Add(-1)
				agg.addQuarantine()
				if obs.Enabled() {
					obs.Emit(obs.Entry{Event: "quarantine", Shard: obs.Int(r.shard), Detail: p.Hosts[r.host].Name(), Err: r.probeErr.Error()})
				}
				fmt.Fprintf(stderr, "orchestrator: host %s quarantined (%v)\n", p.Hosts[r.host].Name(), r.probeErr)
				st.history = append(st.history, Attempt{N: r.ord, Runner: p.Hosts[r.host].Name(),
					Stolen: r.stolen, Err: "never launched: " + r.probeErr.Error()})
				if !r.stolen && !st.done {
					pending = append([]pendingWork{{shard: r.shard, attempt: r.attempt, lastHost: r.host}}, pending...)
				}
			case r.err == nil:
				hosts[r.host].probed = true // the worker ran to completion; skip the next pre-lease probe
				st.history = append(st.history, Attempt{N: r.ord, Runner: p.Hosts[r.host].Name(),
					Stolen: r.stolen})
				if !st.done {
					st.done = true
					unfinished--
					if r.stolen {
						pool.StolenWins++
					}
					// The race is decided: cancel the losing attempts.
					for a, cancel := range st.active {
						cancel()
						if obs.Enabled() {
							obs.Emit(obs.Entry{Event: "steal_cancel", Shard: obs.Int(r.shard), Count: a + 1})
						}
					}
				}
				if obs.Enabled() {
					obs.Emit(obs.Entry{Event: "release", Shard: obs.Int(r.shard), Count: r.attempt + 1, Detail: p.Hosts[r.host].Name()})
				}
			default:
				// A worker failure: the host must re-prove liveness
				// before its next lease, and the shard (if no sibling
				// attempt is still carrying it) moves to another host.
				hosts[r.host].probed = false
				pool.Hosts[r.host].Failures++
				errText := r.err.Error()
				if st.done || ctx.Err() != nil {
					errText = "cancelled: " + errText
				}
				st.history = append(st.history, Attempt{N: r.ord, Runner: p.Hosts[r.host].Name(),
					Stolen: r.stolen, Err: errText})
				if st.done || fatal != nil || ctx.Err() != nil {
					break
				}
				if len(st.active) > 0 {
					// A sibling attempt is still running the shard; the
					// dead duplicate just leaves the race.
					break
				}
				st.failures++
				if st.failures > o.Retries {
					rep.Shards[r.shard].Err = fmt.Errorf("shard %d failed after %d attempt(s): %w\n%s",
						r.shard, st.launched, r.err, historyLines(st.history))
					rep.Shards[r.shard].Tail = st.tail.String()
					fatal, shardFatal = rep.Shards[r.shard].Err, true
					cancelAll()
					break
				}
				pool.Relaunches++
				obsRelaunches.Inc()
				if obs.Enabled() {
					obs.Emit(obs.Entry{Event: "relaunch", Shard: obs.Int(r.shard), Count: st.failures, Detail: p.Hosts[r.host].Name(), Err: r.err.Error()})
				}
				fmt.Fprintf(stderr, "orchestrator: shard %d attempt on %s failed (%v); moving to another host (store resumes)\n",
					r.shard, p.Hosts[r.host].Name(), r.err)
				pending = append(pending, pendingWork{shard: r.shard, attempt: r.attempt, lastHost: r.host})
			}
		case <-kick:
		case <-done:
			// Cancellation: fall through — in-flight attempts observe
			// their contexts and drain via results. Nil the channel so
			// the remaining drain blocks on results instead of spinning
			// on the permanently-ready Done case.
			done = nil
		}
	}

	// Fill the per-shard report rows from the pool's state.
	for i := range shards {
		st := &shards[i]
		rep.Shards[i].Shard = i
		rep.Shards[i].Attempts = st.launched
		rep.Shards[i].History = append([]Attempt(nil), st.history...)
		if len(st.history) > 0 {
			rep.Shards[i].Runner = st.history[len(st.history)-1].Runner
		}
		if !st.done && rep.Shards[i].Err == nil {
			rep.Shards[i].Err = fmt.Errorf("shard %d: %w", i, context.Canceled)
		}
	}
	if shardFatal {
		return nil // the exhausted shard's error rides rep.Shards
	}
	if fatal != nil {
		return fatal
	}
	return ctx.Err()
}

// historyLines renders an attempt history one line per attempt, for
// retry-exhaustion errors that must be debuggable from CI logs alone.
func historyLines(h []Attempt) string {
	s := "attempt history:"
	for _, a := range h {
		s += "\n  " + a.String()
	}
	return s
}
