package main

import (
	"fmt"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/exemplar"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// benchWorkload is one benchmark input: a scheme, a Table III benchmark, a
// run length and whether the observability planes ride along. README.md
// records why each was chosen and which layer it loads or bypasses.
type benchWorkload struct {
	name   string
	scheme config.SchemeName
	bench  string
	// instrPerCore is long enough for one run to sit past the initial NM
	// fill and to take about 2 s of host time on a 2-vCPU Xeon VM.
	instrPerCore uint64
	// planes reports whether the telemetry sampler, health detector,
	// flight recorder and exemplar recorder run at their defaults (true)
	// or are all disabled (false).
	planes bool
	// live checks that the workload exercised the mechanism it claims to
	// measure; it returns a non-nil error naming the first dead one.
	live func(r *harness.Result) error
}

// footScaleDen divides every benchmark footprint so 4 cores fit the small
// 4 MiB NM / 16 MiB FM machine.
const footScaleDen = 8

var workloads = []benchWorkload{
	{
		name: "silc-mcf-swap", scheme: config.SchemeSILCFM, bench: "mcf",
		instrPerCore: 6_000_000, planes: true,
		live: func(r *harness.Result) error {
			switch {
			case r.Mem.SwapsIn == 0:
				return fmt.Errorf("no swaps")
			case r.Mem.Locks == 0:
				return fmt.Errorf("no locks")
			case r.Lat.Hist[stats.PathMispredict].N == 0:
				return fmt.Errorf("no mispredict-path demand")
			}
			return nil
		},
	},
	{
		name: "cam-lbm-write", scheme: config.SchemeCAMEO, bench: "lbm",
		instrPerCore: 16_000_000, planes: true,
		live: func(r *harness.Result) error {
			switch {
			// CAMEO swaps on every demand to FM and counts those swaps as
			// swap-path demands, not in Mem.SwapsIn (prefetch swaps only).
			case r.Lat.Hist[stats.PathSwap].N == 0:
				return fmt.Errorf("no swap-path demand")
			case writebacks(r) == 0:
				return fmt.Errorf("no LLC writebacks reached memory")
			}
			return nil
		},
	},
	{
		name: "base-dealii-bare", scheme: config.SchemeBaseline, bench: "dealII",
		instrPerCore: 40_000_000, planes: false,
		live: func(r *harness.Result) error {
			nm := r.Mem.ServicedNM + r.Mem.TotalBytes(stats.NM)
			switch {
			case nm != 0:
				return fmt.Errorf("NM traffic on the FM-only baseline: %d", nm)
			case len(r.Health)+len(r.Bundles)+len(r.Exemplars) != 0:
				return fmt.Errorf("planes produced output while disabled: %d incidents, %d bundles, %d exemplars",
					len(r.Health), len(r.Bundles), len(r.Exemplars))
			}
			return nil
		},
	},
}

func findWorkload(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// machine is the 4-core modelled machine every workload runs on: the
// Table II core and L1, Table II's 512 KiB of shared LLC per core, and a
// small 4 MiB HBM NM and 16 MiB DDR3 FM. (config.Default's 8 MiB LLC
// would hold most of a scaled footprint, so dirty LLC victims, and with
// them memory writes, would not start within a run.)
func (w benchWorkload) machine(seed int64) config.Machine {
	m := config.Default()
	m.Cores = 4
	m.L2.Size = 2 << 20
	m.NM = config.HBM(4 << 20)
	m.FM = config.DDR3(16 << 20)
	m.Scheme = w.scheme
	m.Seed = seed
	return m
}

// spec is the harness spec of one run. instrPerCore overrides the
// workload's length when nonzero (the shadow pass and tests run shorter).
func (w benchWorkload) spec(seed int64, instrPerCore uint64, planes bool) harness.Spec {
	if instrPerCore == 0 {
		instrPerCore = w.instrPerCore
	}
	s := harness.Spec{
		Machine:      w.machine(seed),
		Workload:     w.bench,
		InstrPerCore: instrPerCore,
		FootScaleNum: 1,
		FootScaleDen: footScaleDen,
	}
	if !planes {
		s.Health = &health.Config{Disabled: true}
		s.Flightrec = &flightrec.Config{Disabled: true}
		s.Exemplars = &exemplar.Config{Disabled: true}
	}
	return s
}

// genParams mirrors harness.Run's generator parameters for spec.
func genParams(spec harness.Spec) (workload.Params, error) {
	p, ok := workload.Spec(spec.Workload)
	if !ok {
		return p, fmt.Errorf("unknown benchmark %q", spec.Workload)
	}
	return workload.ScaleFootprint(p, spec.FootScaleNum, spec.FootScaleDen), nil
}

// genSeed mirrors harness.Run's generator seed for core c.
func genSeed(m config.Machine, c int) int64 { return m.Seed + int64(c)*7919 }

// addressSpace mirrors the address space harness.Run builds for m.
func addressSpace(m config.Machine) *vm.AddressSpace {
	nmBytes := m.NM.Capacity
	if m.Scheme == config.SchemeBaseline {
		nmBytes = 0
	}
	return vm.NewAddressSpace(nmBytes, m.FM.Capacity, placement(m.Scheme), m.Seed)
}

// placement mirrors the first-touch policy harness.Run gives each scheme
// the benchmark uses.
func placement(s config.SchemeName) vm.Policy {
	switch s {
	case config.SchemeBaseline, config.SchemeHMA:
		return vm.PolicyFMFirst
	case config.SchemeRandom:
		return vm.PolicyRandom
	default:
		return vm.PolicyInterleaved
	}
}

// writebacks counts dirty LLC victims that entered the memory system: the
// controller counts every request it receives, the cores only their
// demand misses.
func writebacks(r *harness.Result) uint64 {
	var demand uint64
	for _, c := range r.Cores {
		demand += c.LLCMisses
	}
	return r.Mem.LLCMisses - demand
}
