package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"silcfm/internal/config"
	"silcfm/internal/harness"
	"silcfm/internal/stats"
)

// perLayer runs the traced pass and the fixed-input microbenchmarks and
// reports the per-layer metrics. Around them it runs the workload untraced,
// interleaving runs with the planes on and off when the workload has them,
// for the planes and tracing overheads.
func perLayer(w benchWorkload, o options, rep *report) {
	start := time.Now()
	spec := w.spec(o.seed, o.instr, w.planes)

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, want, err := runChecked(w, spec, 0)
	runtime.ReadMemStats(&after)
	if !rep.check(err) {
		return
	}
	runtime.GC()
	tr, err := runTraced(spec)
	if err == nil && tr.out.digest() != want {
		err = fmt.Errorf("traced pass digest %016x differs from harness.Run's %016x", tr.out.digest(), want)
	}
	if err == nil && tr.t.eventNs < tr.wrappedNs() {
		err = fmt.Errorf("traced pass: wrapped self time %d ns exceeds the sampled events' %d ns", tr.wrappedNs(), tr.t.eventNs)
	}
	if !rep.check(wrapErr("traced pass", err)) {
		return
	}
	if err := tr.writeSpans(o.spansOut); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	}

	// Planes on/off pairs, alternating which side runs first. A workload
	// without planes runs bare only, for the tracing overhead.
	bare := w.spec(o.seed, o.instr, false)
	var on, off, ratio []float64
	for i := 0; i < 2 || time.Since(start) < o.budget; i++ {
		var lo, lf float64
		for _, planes := range []bool{i%2 == 0, i%2 != 0} {
			if !w.planes && planes {
				continue
			}
			s := bare
			if planes {
				s = spec
			}
			runtime.GC()
			res, _, err := runChecked(w, s, want)
			if !rep.check(err) {
				continue
			}
			if planes {
				lo = loopSeconds(res)
				on = append(on, lo)
			} else {
				lf = loopSeconds(res)
				off = append(off, lf)
			}
		}
		if lo > 0 && lf > 0 {
			ratio = append(ratio, lo/lf)
		}
	}
	workloadLoops := off
	if w.planes {
		workloadLoops = on
	}

	layers(rep, spec, ref, tr, median(off), workloadLoops)
	planesOverhead := 0.0
	if len(ratio) > 0 {
		planesOverhead = median(ratio) - 1
	}
	rep.add("planes.overhead_frac", planesOverhead, len(ratio), "median paired planes-on / planes-off loop time - 1; 0 when the workload runs without planes")
	rep.add("planes.incidents", float64(len(ref.Health)), 1, "health incidents closed")
	rep.add("planes.bundles", float64(len(ref.Bundles)), 1, "flight-recorder bundles")
	rep.add("host.allocs_per_minstr", float64(after.Mallocs-before.Mallocs)/(float64(ref.TotalInstructions())/1e6), 1, "one untraced harness.Run")
	rep.add("host.gc_count", float64(after.NumGC-before.NumGC), 1, "one untraced harness.Run")
	rep.add("trace.overhead_frac", float64(tr.loopNs)/1e9/median(off)-1, len(off), "traced loop / median planes-off untraced loop - 1")
}

// layers adds the traced pass's counts and Handle timing, the
// microbenchmarks and the modelled layers' counters from the reference
// run. Host-time shares are estimates for the untraced run: a layer's ns
// per call times its calls, over offLoop, the median untraced loop time of
// the planes-off machine the traced pass builds. sim self time is the rest
// of that loop.
func layers(rep *report, spec harness.Spec, ref *harness.Result, tr *tracedRun, offLoop float64, workloadLoops []float64) {
	m := spec.Machine
	t := tr.t
	instr := float64(ref.TotalInstructions())
	loopNs := offLoop * 1e9
	loopShare := func(ns float64) float64 { return ns / loopNs }
	refs := float64(0)
	for _, c := range ref.Cores {
		refs += float64(c.MemRefs)
	}

	const microRounds = 3
	nextN := len(t.replay)
	next, err := nextNs(spec, nextN, microRounds)
	rep.check(wrapErr("next micro", err))
	xlate := translateNs(m, t.replay, microRounds)
	cacheNs := cacheReplayNs(m, t.replay, microRounds)
	// Handle takes hundreds of ns, so the sampled calls time it in place,
	// less the tracer's cost inside each timed interval.
	emptyNs := emptyCallNs()
	handle := math.Max(float64(t.selfNs[layerCtl])/float64(t.timed[layerCtl])-emptyNs, 0)
	workloadNs := next * float64(t.calls[layerWorkload])
	vmNs := xlate * float64(t.calls[layerVM])
	ctlNs := handle * float64(t.calls[layerCtl])
	simSelfNs := loopNs - workloadNs - vmNs - ctlNs
	var sumErr error
	if simSelfNs < 0 {
		sumErr = fmt.Errorf("layer estimates %.4g ns exceed the untraced loop time %.4g ns", loopNs-simSelfNs, loopNs)
	}
	rep.check(sumErr)
	rawNote := func(l int) string {
		return fmt.Sprintf("; traced sample %.4g ns per call with the clock reads", float64(t.selfNs[l])/float64(t.timed[l]))
	}

	rep.add("workload.next_ns", next, microRounds, fmt.Sprintf("fresh generators, %d Next calls round robin", nextN)+rawNote(layerWorkload))
	rep.add("workload.next_calls", float64(t.calls[layerWorkload]), 1, "")
	rep.add("workload.loop_share", loopShare(workloadNs), 1, "next_ns x calls / untraced loop time")
	rep.add("cache.replay_ns", cacheNs, microRounds, fmt.Sprintf("Hierarchy.Access replaying %d recorded references", len(t.replay)))
	rep.add("cache.est_loop_share", loopShare(cacheNs*refs), 1, "replay ns x references / untraced loop time; inside sim self time")
	var l1, l2, mr, misses, stall, finish float64
	for _, c := range ref.Cores {
		l1 += float64(c.L1Hits)
		l2 += float64(c.L2Hits)
		mr += float64(c.MemRefs)
		misses += float64(c.LLCMisses)
		stall += float64(c.StallCycles)
		finish += float64(c.FinishCycle)
	}
	rep.add("cache.l1_hit_rate", l1/mr, 1, "")
	rep.add("cache.l2_hit_rate", l2/(mr-l1), 1, "")

	rep.add("vm.translate_ns", xlate, microRounds, fmt.Sprintf("fresh address space replaying %d recorded addresses", len(t.replay))+rawNote(layerVM))
	rep.add("vm.translate_calls", float64(t.calls[layerVM]), 1, "")
	rep.add("vm.loop_share", loopShare(vmNs), 1, "translate_ns x calls / untraced loop time")

	mm := &ref.Mem
	demandBytes := float64(mm.Bytes[stats.NM][stats.Demand] + mm.Bytes[stats.FM][stats.Demand])
	rep.add("ctl.handle_ns", handle, int(t.timed[layerCtl]), fmt.Sprintf("mean self time per Controller.Handle in the sampled events, less %.3g ns tracer cost; synchronous mem/dram plumbing included", emptyNs))
	rep.add("ctl.handle_calls", float64(t.calls[layerCtl]), 1, "LLC misses and writebacks")
	rep.add("ctl.loop_share", loopShare(ctlNs), 1, "handle_ns x calls / untraced loop time")
	rep.add("ctl.nm_demand_frac", mm.DemandNMFraction(), 1, "NM share of demand bytes")
	rep.add("ctl.swaps_per_kmiss", 1000*float64(mm.SwapsIn)/float64(mm.LLCMisses), 1, "")
	rep.add("ctl.migration_bytes_per_demand_byte", float64(mm.Bytes[stats.NM][stats.Migration]+mm.Bytes[stats.FM][stats.Migration])/demandBytes, 1, "")
	rep.add("ctl.predictor_accuracy", mm.PredictorAccuracy(), 1, "")
	rep.add("ctl.bypassed_frac", float64(mm.BypassedAccesses)/float64(mm.LLCMisses), 1, "")
	rep.add("ctl.locks", float64(mm.Locks), 1, "")

	const microN, microDepth = 100_000, 8
	var dramEst float64
	for _, d := range []struct {
		name string
		cfg  config.DRAMConfig
		lv   stats.MemLevel
	}{{"hbm", m.NM, stats.NM}, {"ddr3", m.FM, stats.FM}} {
		hit, hitShare, _ := dramNs(d.cfg, false, microN, microDepth, microRounds)
		conflict, _, conflictShare := dramNs(d.cfg, true, microN, microDepth, microRounds)
		var err error
		if hitShare < 0.9 || conflictShare < 0.9 {
			err = fmt.Errorf("dram micro %s: row-hit stream hit share %.3f, row-conflict stream conflict share %.3f, want >= 0.9",
				d.name, hitShare, conflictShare)
		}
		rep.check(err)
		rep.add("dram."+d.name+"_rowhit_ns", hit, microRounds, "standalone device, Submit to completion")
		rep.add("dram."+d.name+"_conflict_ns", conflict, microRounds, "standalone device, Submit to completion")
		if st := tr.sys.Device(d.lv).Stats(); st.Reads+st.Writes > 0 {
			reqs := float64(st.Reads + st.Writes)
			hr := float64(st.RowHits) / reqs
			dramEst += reqs * (hr*hit + (1-hr)*conflict)
		}
	}
	rep.add("dram.est_loop_share", loopShare(dramEst), 1, "device requests x micro ns / untraced loop time; inside ctl and sim self time")
	for lv, dev := range []string{"nm", "fm"} {
		st := tr.sys.Device(stats.MemLevel(lv)).Stats()
		reqs := float64(mm.RowHits[lv] + mm.RowMisses[lv])
		chans := m.NM.Channels
		if lv == int(stats.FM) {
			chans = m.FM.Channels
		}
		rep.add("dram."+dev+".row_hit_rate", float64(mm.RowHits[lv])/reqs, 1, "")
		rep.add("dram."+dev+".row_conflict_rate", float64(mm.RowConflicts[lv])/reqs, 1, "")
		rep.add("dram."+dev+".bus_util", float64(mm.BusBusyCycles[lv])/float64(uint64(chans)*ref.Cycles), 1, "")
		rep.add("dram."+dev+".read_wait_cyc", float64(mm.ReadQueueWaitCycles[lv])/float64(st.Reads), 1, "mean read-queue residency")
		rep.add("dram."+dev+".write_wait_cyc", float64(mm.WriteQueueWaitCycles[lv])/float64(st.Writes), 1, "mean write-queue residency")
	}

	for _, p := range []stats.DemandPath{stats.PathNMHit, stats.PathFM, stats.PathSwap, stats.PathMispredict} {
		rep.add("mem.lat_p99_"+p.String()+"_cyc", float64(ref.Lat.Hist[p].Percentile(99)), 1, "")
	}
	var spans [stats.NumSpans]uint64
	var total uint64
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		for s, v := range ref.Attr.Spans[p] {
			spans[s] += v
			total += v
		}
	}
	rep.add("mem.queue_share", float64(spans[stats.SpanQueue])/float64(total), 1, "share of demand latency queued at a device")
	rep.add("mem.swap_serial_share", float64(spans[stats.SpanSwapSerial])/float64(total), 1, "share of demand latency held behind swaps")

	const engineN, engineChains = 2_000_000, 64
	rep.add("sim.events", float64(t.events), 1, "")
	rep.add("sim.loop_ns_per_event", loopNs/float64(t.events), 1,
		fmt.Sprintf("untraced; the %d timed events took %.4g ns each", t.sampled, float64(t.eventNs)/float64(t.sampled)))
	rep.add("sim.self_ns_per_event", simSelfNs/float64(t.events), 1, "untraced loop time less the workload, vm and ctl estimates")
	rep.add("sim.self_share", loopShare(simSelfNs), 1, "")
	rep.add("sim.micro_ns_per_event", engineNs(engineN, engineChains, microRounds), microRounds, "engine At + dispatch")
	rep.add("sim.mcyc_per_s", float64(ref.Cycles)/median(workloadLoops)/1e6, len(workloadLoops), "untraced")
	rep.add("cpu.mpki", 1000*misses/instr, 1, "")
	rep.add("cpu.stall_frac", stall/finish, 1, "")
	rep.add("trace.empty_call_ns", emptyNs, 1, "self time recorded for an empty timed call; subtracted from ctl.handle_ns")
}
