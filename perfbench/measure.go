package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the process's user+sys CPU time so far (getrusage).
// Time stolen by the hypervisor is not charged to the process, so CPU
// time stays steady when wall time does not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// meter times the measured part of one op, in wall and CPU time. An
// op calls start and stop around the work it wants measured; what it
// does outside that window (creating and deleting a scratch store) is
// untimed.
type meter struct {
	wall0 time.Time
	cpu0  time.Duration
	wall  time.Duration
	cpu   time.Duration
}

func (m *meter) start() {
	m.cpu0 = cpuTime()
	m.wall0 = time.Now()
}

func (m *meter) stop() {
	m.wall = time.Since(m.wall0)
	m.cpu = cpuTime() - m.cpu0
}

// quantile is the linearly interpolated q-quantile of xs (q in [0,1]).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// cpuStat is one reading of the aggregate "cpu" line of /proc/stat, in
// clock ticks.
type cpuStat struct {
	total, steal uint64
}

// readCPUStat reads /proc/stat. ok is false where it is unavailable,
// and the steal share is then reported as -1.
func readCPUStat() (st cpuStat, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return st, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return st, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return st, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return st, false
		}
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st, true
}

// stealShare is the machine-wide share of CPU time stolen by the
// hypervisor between two readings.
func stealShare(a, b cpuStat, okA, okB bool) float64 {
	if !okA || !okB || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// metric is one named value with its unit, as printed in the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to values; fields are set with set.
type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}
