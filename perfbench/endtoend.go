package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"silcfm/internal/harness"
	"silcfm/internal/stats"
)

// minRuns is the least number of timed runs behind a host-time median,
// however short --seconds is.
const minRuns = 3

// endToEnd repeats the workload's harness.Run untraced for the time budget
// and reports the end-to-end metrics, then runs a short shadow-checked pass.
// Host times are in reference seconds (see refNsPerElem); the notes give
// the raw medians.
func endToEnd(w benchWorkload, o options, rep *report) {
	spec := w.spec(o.seed, o.instr, w.planes)
	var first *harness.Result
	var want uint64
	var rate, wall, setup, rawRate, rawWall, factor []float64
	var memMiB float64
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < o.budget; i++ {
		runtime.GC()
		before := calibrate()
		res, d, err := runChecked(w, spec, want)
		runtime.GC()
		after := calibrate()
		if !rep.check(err) {
			continue
		}
		if first == nil {
			first, want = res, d
			var err error
			memMiB, err = peakRSSMiB()
			rep.check(wrapErr("host_mem_mib", err))
		}
		// toRef converts this run's host seconds to reference seconds.
		toRef := refNsPerElem / ((before + after) / 2)
		loop := loopSeconds(res)
		instr := float64(res.TotalInstructions())
		rate = append(rate, instr/(loop*toRef)/1e6)
		wall = append(wall, res.WallSeconds*toRef)
		setup = append(setup, (res.WallSeconds-loop)*toRef)
		rawRate = append(rawRate, instr/loop/1e6)
		rawWall = append(rawWall, res.WallSeconds)
		factor = append(factor, toRef)
	}
	shadowPass(w, o, rep)
	if first == nil {
		return
	}
	n := len(rate)
	raw := fmt.Sprintf("; raw host medians %.4g Minstr/s, wall %.4g s; reference s per host s %.3f",
		median(rawRate), median(rawWall), median(factor))
	rep.add("sim_minstr_per_s", median(rate), n, spreadNote(rate)+raw)
	rep.add("wall_s", median(wall), n, spreadNote(wall))
	rep.add("setup_s", median(setup), n, spreadNote(setup))
	rep.add("host_mem_mib", memMiB, 1, "peak resident set of the process through the first timed run")
	const cold = "simulated: exact per seed; caches and NM start empty; model unvalidated"
	rep.add("sim_ipc", float64(first.TotalInstructions())/float64(first.Cycles), n, cold)
	rep.add("sim_demand_lat_mean_cyc", meanDemandLatency(first.Attr), n, cold)
	rep.add("sim_edp", first.EDP(), n, cold)
}

// shadowDiv shortens the shadow-checked pass relative to a timed run: the
// checker verifies every access against a reference model and is slow.
const shadowDiv = 20

// shadowPass runs the workload once with the continuous shadow-data
// checker, outside the timed runs, as an output-correctness check.
func shadowPass(w benchWorkload, o options, rep *report) {
	instr := o.instr
	if instr == 0 {
		instr = w.instrPerCore
	}
	spec := w.spec(o.seed, instr/shadowDiv, w.planes)
	spec.ShadowCheck = true
	res, err := harness.Run(spec)
	rep.check(wrapErr("shadow pass", checkRun(res, err)))
}

// refNsPerElem defines the reference second in which the end-to-end host
// times are reported: one second on a host whose calibration sort takes
// 100 ns per element. A run's host time is scaled by refNsPerElem over the
// calibration measured just before and after it. The host this benchmark
// was tuned on switches between a fast and a slow speed, about 1.5x apart,
// every few seconds to minutes; the calibration slows with it, so the
// scaled times cancel most of that drift.
const refNsPerElem = 100.0

// calInput is the calibration sort's fixed input: 64 Ki pseudo-random ints.
var calInput = func() []int {
	a := make([]int, 1<<16)
	x := uint64(88172645463325252)
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = int(x >> 1)
	}
	return a
}()

// calibrate sorts a copy of calInput three times and returns the median
// host ns per element. The sort is the standard library's, fixed by the Go
// toolchain, so it stays the same when the simulator changes.
func calibrate() float64 {
	buf := make([]int, len(calInput))
	var per []float64
	for i := 0; i < 3; i++ {
		copy(buf, calInput)
		start := time.Now()
		sort.Ints(buf)
		per = append(per, float64(time.Since(start).Nanoseconds())/float64(len(buf)))
	}
	return median(per)
}

// meanDemandLatency is Σ attributed cycles / Σ demands over every path.
func meanDemandLatency(a *stats.Attribution) float64 {
	var sum, n uint64
	for p := stats.DemandPath(0); p < stats.NumDemandPaths; p++ {
		sum += a.PathTotal(p)
		n += a.Count[p]
	}
	return float64(sum) / float64(n)
}

// peakRSSMiB returns the process's peak resident set size so far, VmHWM in
// /proc/self/status, in MiB. The Go runtime's own MemStats.Sys is no
// substitute: it counts address space reserved in 4 MiB steps, so one GC
// finishing late moves it by a quarter.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kB, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kB / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
