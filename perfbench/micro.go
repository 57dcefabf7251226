package main

import (
	"time"

	"silcfm/internal/cache"
	"silcfm/internal/config"
	"silcfm/internal/dram"
	"silcfm/internal/harness"
	"silcfm/internal/sim"
	"silcfm/internal/vm"
	"silcfm/internal/workload"
)

// Fixed-input layer microbenchmarks. They time the layers the full run
// cannot wrap from outside: the cache hierarchy (called inside the core's
// event), the DRAM device (reached from Handle and from its own completion
// events) and the engine's At + dispatch. They also time the generator and
// the translate func, whose calls take about as long as the clock reads
// that would time them one by one. Each reports host ns per operation.

// replayCap bounds the recorded reference stream (24 B each).
const replayCap = 1 << 20

// recordedRef is one reference as the core hands it to the translate func
// (core, va) and then to cache.Hierarchy.Access (core, pa, write).
type recordedRef struct {
	va, pa uint64
	core   uint8
	write  bool
}

// nextNs calls Next n times, round robin over fresh generators of every
// core of spec, rounds times, and returns the median ns per call.
func nextNs(spec harness.Spec, n, rounds int) (float64, error) {
	params, err := genParams(spec)
	if err != nil {
		return 0, err
	}
	m := spec.Machine
	var per []float64
	for i := 0; i < rounds; i++ {
		gens := make([]workload.Generator, m.Cores)
		for c := range gens {
			gens[c] = workload.NewSynthetic(params, genSeed(m, c))
		}
		var r workload.Ref
		start := time.Now()
		for j := 0; j < n; j++ {
			gens[j%len(gens)].Next(&r)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(per), nil
}

// translateNs replays the recorded virtual addresses through a fresh
// address space of machine m rounds times and returns the median ns per
// translation.
func translateNs(m config.Machine, refs []recordedRef, rounds int) float64 {
	if len(refs) == 0 {
		return 0
	}
	var per []float64
	for i := 0; i < rounds; i++ {
		space := addressSpace(m)
		start := time.Now()
		for _, r := range refs {
			space.MustTranslate(vm.CoreVA(int(r.core), r.va))
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(refs)))
	}
	return median(per)
}

// cacheReplayNs replays refs through a fresh hierarchy of machine m
// rounds times and returns the median ns per Access.
func cacheReplayNs(m config.Machine, refs []recordedRef, rounds int) float64 {
	if len(refs) == 0 {
		return 0
	}
	var per []float64
	for i := 0; i < rounds; i++ {
		h := cache.NewHierarchy(m.Cores, m.L1D, m.L2)
		h.Writeback = func(uint64) {}
		start := time.Now()
		for _, r := range refs {
			h.Access(int(r.core), r.pa, r.write)
		}
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(refs)))
	}
	return median(per)
}

// dramNs times n reads through a standalone device, keeping depth requests
// in flight; each completion submits the next. conflict selects a stream
// that walks one bank's rows (every access a row conflict) instead of one
// that walks the blocks of one open row (every access after the first a row
// hit). It returns the median host ns per Submit-to-completion over rounds,
// and the stream's row-hit and row-conflict fractions.
func dramNs(cfg config.DRAMConfig, conflict bool, n, depth, rounds int) (ns, hitRate, conflictRate float64) {
	nChan := uint64(cfg.Channels)
	banks := uint64(cfg.RanksPerChan * cfg.BanksPerRank)
	blocksPerRow := cfg.RowBufferSize / 64
	rowsPerBank := cfg.Capacity / 64 / nChan / banks / blocksPerRow
	// addr maps the i-th request to channel 0, bank 0: block-in-bank index
	// bcb = row*blocksPerRow + column, device block = bcb*banks*nChan.
	addr := func(i uint64) uint64 {
		bcb := i % blocksPerRow
		if conflict {
			bcb = (i % rowsPerBank) * blocksPerRow
		}
		return bcb * banks * nChan * 64
	}
	var per []float64
	for r := 0; r < rounds; r++ {
		eng := sim.NewEngine()
		dev := dram.New(cfg, eng)
		var issued, done uint64
		var submit, onDone func()
		submit = func() {
			dev.Submit(dram.Request{Addr: addr(issued), Bytes: 64, Done: onDone})
			issued++
		}
		onDone = func() {
			done++
			if issued < uint64(n) {
				submit()
			}
		}
		start := time.Now()
		for i := 0; i < depth; i++ {
			submit()
		}
		eng.Run()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(done))
		st, bt := dev.Stats(), dev.TotalBankCounters()
		hitRate = float64(st.RowHits) / float64(done)
		conflictRate = float64(bt.RowConflicts) / float64(done)
	}
	return median(per), hitRate, conflictRate
}

// engineNs times sim.Engine At + dispatch: chains self-rescheduling events
// with short, varied delays, as DRAM timing and core wakeups do. It returns
// the median host ns per dispatched event over rounds.
func engineNs(n, chains, rounds int) float64 {
	var per []float64
	for r := 0; r < rounds; r++ {
		eng := sim.NewEngine()
		var fired int
		var step func()
		step = func() {
			fired++
			if fired < n {
				eng.After(sim.Cycle(1+fired%97), step)
			}
		}
		start := time.Now()
		for i := 0; i < chains; i++ {
			eng.At(sim.Cycle(i), step)
		}
		eng.Run()
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(fired))
	}
	return median(per)
}
