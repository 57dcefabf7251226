package main

import (
	"errors"
	"fmt"
	"hash/fnv"

	"silcfm/internal/dram"
	"silcfm/internal/harness"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
)

// simOutcome is the simulated (host-independent) result of one run: the
// values the digest covers.
type simOutcome struct {
	cycles uint64
	mem    stats.Memory
	cores  []stats.Core
	lat    *stats.PathLatencies
	attr   *stats.Attribution
}

func outcomeOf(r *harness.Result) simOutcome {
	return simOutcome{cycles: r.Cycles, mem: r.Mem, cores: r.Cores, lat: r.Lat, attr: r.Attr}
}

// memoryOf reduces a finished system's counters the way harness.Run does
// for Result.Mem: the controller's counters plus the device-level DRAM
// ledgers.
func memoryOf(sys *mem.System) stats.Memory {
	m := *sys.Stats
	for lv, dev := range [2]*dram.Device{sys.NM, sys.FM} {
		st := dev.Stats()
		bt := dev.TotalBankCounters()
		ct := dev.TotalChannelCounters()
		m.RowHits[lv] = st.RowHits
		m.RowMisses[lv] = st.RowMisses
		m.RowConflicts[lv] = bt.RowConflicts
		m.RefreshCloses[lv] = bt.RefreshCloses
		m.BankBusyCycles[lv] = bt.BusyCycles
		m.BusBusyCycles[lv] = ct.BusBusyCycles
		m.ReadQueueWaitCycles[lv] = ct.ReadQueueWait
		m.WriteQueueWaitCycles[lv] = ct.WriteQueueWait
	}
	return m
}

// digest hashes cycles, every stats.Memory counter, every core counter and
// the per-path latency and attribution sums. Two runs of the same workload
// and seed must produce the same digest, whatever the host did.
func (o simOutcome) digest() uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	put(o.cycles)
	for _, c := range o.mem.Counters() {
		put(c.Value)
	}
	for _, c := range o.cores {
		put(c.Instructions, c.MemRefs, c.L1Hits, c.L2Hits, c.LLCMisses, c.FinishCycle, c.StallCycles)
	}
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		hs := &o.lat.Hist[p]
		put(hs.N, hs.Sum, hs.Max, o.attr.Count[p])
		put(o.attr.Spans[p][:]...)
	}
	return h.Sum64()
}

// checkRun returns the first correctness failure of a finished harness run:
// a run error, the data-integrity audit, the shadow checker or counter
// conservation.
func checkRun(r *harness.Result, err error) error {
	if err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return errors.Join(wrapErr("audit", r.AuditErr), wrapErr("shadow", r.ShadowErr),
		wrapErr("conservation", r.ConservationErr))
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}
