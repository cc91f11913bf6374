package paradet

import (
	"sync"

	"paradet/internal/asm"
	"paradet/internal/isa"
	"paradet/internal/workloads"
)

// WorkloadInfo describes one of the nine evaluation kernels (the paper's
// Table II equivalents).
type WorkloadInfo struct {
	Name        string
	Suite       string
	Class       string
	Description string
	// DefaultMaxInstrs is the committed-instruction sample the evaluation
	// harness uses for this kernel.
	DefaultMaxInstrs uint64
}

// Workloads lists the available workloads in the paper's Table II order.
func Workloads() []WorkloadInfo {
	out := make([]WorkloadInfo, 0, len(workloads.Names()))
	for _, name := range workloads.Names() {
		info, _, err := workloads.Get(name)
		if err != nil {
			panic(err) // registry and Names are defined together
		}
		out = append(out, WorkloadInfo(info))
	}
	return out
}

// assembled holds each registered kernel's program, assembled on its
// first load and shared by every later one: an isa.Program is
// read-only, and the kernel sources never change.
var assembled = func() map[string]func() (*isa.Program, error) {
	all := workloads.All()
	m := make(map[string]func() (*isa.Program, error), len(all))
	for _, info := range all {
		m[info.Name] = sync.OnceValues(func() (*isa.Program, error) {
			_, src, err := workloads.Get(info.Name)
			if err != nil {
				return nil, err
			}
			return asm.Assemble(src)
		})
	}
	return m
}()

// LoadWorkload returns one of the named workloads. Each kernel is
// assembled once per process; every Program it returns shares that
// read-only image.
func LoadWorkload(name string) (*Program, WorkloadInfo, error) {
	info, _, err := workloads.Get(name)
	if err != nil {
		return nil, WorkloadInfo{}, err
	}
	p, err := assembled[name]()
	if err != nil {
		return nil, WorkloadInfo{}, err
	}
	return &Program{prog: p, name: name}, WorkloadInfo(info), nil
}
