package main

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json (a test keeps them equal);
// run fails a workload that does not report every metric of its mode.
type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0.
var endToEndMetrics = []metricDef{
	{"sim_minstr_per_s", "Minstr/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"host_mem_mib", "MiB"},
	{"sim_ipc", "instr/cycle"},
	{"sim_demand_lat_mean_cyc", "cycles"},
	{"sim_edp", "nJ.cycle"},
}

// perLayerMetrics are reported with --trace 1.
var perLayerMetrics = []metricDef{
	{"workload.next_ns", "ns"},
	{"workload.next_calls", "count"},
	{"workload.loop_share", "ratio"},
	{"cache.replay_ns", "ns"},
	{"cache.est_loop_share", "ratio"},
	{"cache.l1_hit_rate", "ratio"},
	{"cache.l2_hit_rate", "ratio"},
	{"vm.translate_ns", "ns"},
	{"vm.translate_calls", "count"},
	{"vm.loop_share", "ratio"},
	{"ctl.handle_ns", "ns"},
	{"ctl.handle_calls", "count"},
	{"ctl.loop_share", "ratio"},
	{"ctl.nm_demand_frac", "ratio"},
	{"ctl.swaps_per_kmiss", "swaps/kmiss"},
	{"ctl.migration_bytes_per_demand_byte", "B/B"},
	{"ctl.predictor_accuracy", "ratio"},
	{"ctl.bypassed_frac", "ratio"},
	{"ctl.locks", "count"},
	{"dram.hbm_rowhit_ns", "ns"},
	{"dram.hbm_conflict_ns", "ns"},
	{"dram.ddr3_rowhit_ns", "ns"},
	{"dram.ddr3_conflict_ns", "ns"},
	{"dram.est_loop_share", "ratio"},
	{"dram.nm.row_hit_rate", "ratio"},
	{"dram.nm.row_conflict_rate", "ratio"},
	{"dram.nm.bus_util", "ratio"},
	{"dram.nm.read_wait_cyc", "cycles"},
	{"dram.nm.write_wait_cyc", "cycles"},
	{"dram.fm.row_hit_rate", "ratio"},
	{"dram.fm.row_conflict_rate", "ratio"},
	{"dram.fm.bus_util", "ratio"},
	{"dram.fm.read_wait_cyc", "cycles"},
	{"dram.fm.write_wait_cyc", "cycles"},
	{"mem.lat_p99_nm-hit_cyc", "cycles"},
	{"mem.lat_p99_fm_cyc", "cycles"},
	{"mem.lat_p99_swap_cyc", "cycles"},
	{"mem.lat_p99_mispredict_cyc", "cycles"},
	{"mem.queue_share", "ratio"},
	{"mem.swap_serial_share", "ratio"},
	{"sim.events", "count"},
	{"sim.loop_ns_per_event", "ns"},
	{"sim.self_ns_per_event", "ns"},
	{"sim.self_share", "ratio"},
	{"sim.micro_ns_per_event", "ns"},
	{"sim.mcyc_per_s", "Mcyc/s"},
	{"cpu.mpki", "miss/kinstr"},
	{"cpu.stall_frac", "ratio"},
	{"planes.overhead_frac", "ratio"},
	{"planes.incidents", "count"},
	{"planes.bundles", "count"},
	{"host.allocs_per_minstr", "allocs/Minstr"},
	{"host.gc_count", "count"},
	{"trace.overhead_frac", "ratio"},
	{"trace.empty_call_ns", "ns"},
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	panic("perfbench: undeclared metric " + name)
}
