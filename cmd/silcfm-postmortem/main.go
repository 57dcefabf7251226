// Command silcfm-postmortem renders an incident postmortem bundle (written
// by silcfm-sim -postmortem-out, silcfm-experiments -postmortem-out, or the
// hub's /api/incidents/<id> endpoint) into a human-readable markdown
// report: the trigger, the rule metadata explaining what fired and where
// to look, the captured epoch window with evidence sparklines, the top
// offender blocks, and the movement-event excerpt.
//
// Usage:
//
//	silcfm-postmortem postmortems/bundle-000.json
//	silcfm-postmortem -o report.md postmortems/bundle-000.json
//	silcfm-postmortem postmortems/          # render every bundle in a dir
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"silcfm/internal/flightrec"
	"silcfm/internal/health"
	"silcfm/internal/telemetry"
)

func main() {
	out := flag.String("o", "", "write the report here instead of stdout")
	events := flag.Int("events", 12, "movement-event excerpt rows per end (head and tail)")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: silcfm-postmortem [-o report.md] <bundle.json | dir>...")
		os.Exit(2)
	}
	var paths []string
	for _, arg := range flag.Args() {
		fi, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-postmortem:", err)
			os.Exit(1)
		}
		if fi.IsDir() {
			matches, err := filepath.Glob(filepath.Join(arg, "bundle-*.json"))
			if err == nil {
				sort.Strings(matches)
				paths = append(paths, matches...)
			}
		} else {
			paths = append(paths, arg)
		}
	}
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "silcfm-postmortem: no bundles found")
		os.Exit(1)
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-postmortem:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	for i, p := range paths {
		b, err := flightrec.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "silcfm-postmortem:", err)
			os.Exit(1)
		}
		if i > 0 {
			fmt.Fprintln(w, "\n---")
		}
		render(w, b, p, *events)
	}
}

// sparkRunes maps a normalized series onto eight block heights.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// spark renders vals as a unicode sparkline normalized to its own max;
// negative values (only a hand-edited bundle has them) draw at the floor.
func spark(vals []float64) string {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 && v > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

func render(w io.Writer, b *flightrec.Bundle, path string, evRows int) {
	fmt.Fprintf(w, "# Postmortem: %s\n\n", b.Trigger)
	fmt.Fprintf(w, "- **Bundle:** `%s` (seq %d, schema %s)\n", path, b.Seq, b.Schema)
	if b.Run != "" {
		fmt.Fprintf(w, "- **Run:** %s\n", b.Run)
	}
	fmt.Fprintf(w, "- **Config fingerprint:** `%s`\n", b.Fingerprint)
	fmt.Fprintf(w, "- **Window:** epochs %d-%d, cycles %d-%d (%d pre-trigger epoch(s) of history)\n",
		b.FirstEpoch, b.LastEpoch, b.FirstCycle, b.LastCycle, b.PreEpochs)
	if b.Forced {
		still := "incident(s)"
		if len(b.OpenKinds) > 0 {
			still = strings.Join(b.OpenKinds, ", ")
		}
		fmt.Fprintf(w, "- **Forced flush:** the run ended with %s still open\n", still)
	}
	if b.EpochsDropped > 0 || b.EventsDropped > 0 {
		fmt.Fprintf(w, "- **Capture bounds hit:** %d epoch(s) and %d event(s) beyond the buffer limits were dropped\n",
			b.EpochsDropped, b.EventsDropped)
	}

	if len(b.Rules) > 0 {
		fmt.Fprintf(w, "\n## Rules fired\n\n")
		for _, tr := range b.Rules {
			fmt.Fprintf(w, "### %s\n\n", tr.Kind)
			fmt.Fprintf(w, "Open at %d epoch boundaries, epochs %d-%d, peak severity %.2f.\n",
				tr.OpenEpochs, tr.FirstEpoch, tr.LastEpoch, tr.PeakSeverity)
			if info, ok := health.Info(tr.Kind); ok {
				fmt.Fprintf(w, "\n%s\n\n", info.Description)
				fmt.Fprintf(w, "- **Fires when:** %s\n", info.Threshold)
				fmt.Fprintf(w, "- **Look first at:** %s\n", strings.Join(info.FirstLook, ", "))
			}
			fmt.Fprintln(w)
		}
	}

	if len(b.Incidents) > 0 {
		fmt.Fprintf(w, "## Incident records\n\n")
		fmt.Fprintf(w, "| kind | epochs | cycles | firing | peak severity |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|\n")
		for i := range b.Incidents {
			in := &b.Incidents[i]
			fmt.Fprintf(w, "| %s | %d-%d | %d-%d | %d | %.2f |\n",
				in.Kind, in.FirstEpoch, in.LastEpoch, in.FirstCycle, in.LastCycle,
				in.Epochs, in.PeakSeverity)
		}
		fmt.Fprintln(w)
	}

	if len(b.Epochs) > 0 {
		fmt.Fprintf(w, "## Evidence window\n\n")
		series := func(name string, f func(*telemetry.Sample) float64) {
			vals := make([]float64, len(b.Epochs))
			var last float64
			for i := range b.Epochs {
				vals[i] = f(&b.Epochs[i].Sample)
				last = vals[i]
			}
			fmt.Fprintf(w, "    %-16s %s  (last %g)\n", name, spark(vals), last)
		}
		fmt.Fprintf(w, "Per-epoch deltas across the captured window (trigger at epoch %d):\n\n", b.FirstEpoch+uint64(b.PreEpochs))
		series("llc_misses", func(s *telemetry.Sample) float64 { return float64(s.LLCMisses) })
		series("access_rate", func(s *telemetry.Sample) float64 { return s.AccessRate })
		series("swaps_in", func(s *telemetry.Sample) float64 { return float64(s.SwapsIn) })
		series("locks", func(s *telemetry.Sample) float64 { return float64(s.Locks) })
		series("unlocks", func(s *telemetry.Sample) float64 { return float64(s.Unlocks) })
		series("bypassed", func(s *telemetry.Sample) float64 { return float64(s.Bypassed) })
		series("peak_queue_nm", func(s *telemetry.Sample) float64 { return float64(s.PeakQueueNM) })
		series("peak_queue_fm", func(s *telemetry.Sample) float64 { return float64(s.PeakQueueFM) })
		fmt.Fprintln(w)

		fmt.Fprintf(w, "| epoch | cycle | misses | rate | swaps i/o | locks/unlocks | bypass | peakQ nm/fm | open rules |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|\n")
		for i := range b.Epochs {
			e := &b.Epochs[i]
			s := &e.Sample
			var rules []string
			for _, r := range e.Rules {
				rules = append(rules, fmt.Sprintf("%s (%.2f)", r.Kind, r.Severity))
			}
			marker := ""
			if i == b.PreEpochs {
				marker = " ←trigger"
			}
			fmt.Fprintf(w, "| %d%s | %d | %d | %.3f | %d/%d | %d/%d | %d | %d/%d | %s |\n",
				s.Epoch, marker, s.Cycle, s.LLCMisses, s.AccessRate,
				s.SwapsIn, s.SwapsOut, s.Locks, s.Unlocks, s.Bypassed,
				s.PeakQueueNM, s.PeakQueueFM, strings.Join(rules, ", "))
		}
		fmt.Fprintln(w)
	}

	// Attribution: where the trigger epoch's latency went, by path.
	if ti := b.PreEpochs; ti < len(b.Epochs) && len(b.Epochs[ti].Attr) > 0 {
		fmt.Fprintf(w, "## Latency attribution at trigger epoch\n\n")
		fmt.Fprintf(w, "| path | completions | queue | service | meta | swap-ser | mispred | other |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|\n")
		for _, a := range b.Epochs[ti].Attr {
			fmt.Fprintf(w, "| %s | %d | %d | %d | %d | %d | %d | %d |\n",
				a.Path, a.Count, a.Queue, a.Service, a.MetaFetch, a.SwapSerial, a.Mispredict, a.Other)
		}
		fmt.Fprintln(w)
	}

	if len(b.Offenders) > 0 {
		fmt.Fprintf(w, "## Top offender blocks (window-wide)\n\n")
		fmt.Fprintf(w, "| block | address | demands | avg latency |\n")
		fmt.Fprintf(w, "|---|---|---|---|\n")
		for _, o := range b.Offenders {
			avg := 0.0
			if o.Demands > 0 {
				avg = float64(o.LatCycles) / float64(o.Demands)
			}
			fmt.Fprintf(w, "| %d | 0x%x | %d | %.0f cyc |\n", o.Block, o.Block<<11, o.Demands, avg)
		}
		fmt.Fprintln(w)
	}

	if len(b.Events) > 0 {
		counts := map[string]int{}
		for i := range b.Events {
			counts[b.Events[i].Kind]++
		}
		kinds := make([]string, 0, len(counts))
		for k := range counts {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		var parts []string
		for _, k := range kinds {
			parts = append(parts, fmt.Sprintf("%d %s", counts[k], k))
		}
		fmt.Fprintf(w, "## Movement events\n\n")
		fmt.Fprintf(w, "%d captured (%s)", len(b.Events), strings.Join(parts, ", "))
		if b.EventsDropped > 0 {
			fmt.Fprintf(w, "; %d more fell outside the buffer", b.EventsDropped)
		}
		fmt.Fprintf(w, ".\n\n")
		show := func(ev *flightrec.EventRecord) {
			switch ev.Kind {
			case "swap":
				fmt.Fprintf(w, "- cycle %d: swap %s:0x%x ↔ %s:0x%x\n", ev.Cycle, ev.SrcLevel, ev.Src, ev.DstLevel, ev.Dst)
			case "lock", "unlock":
				fmt.Fprintf(w, "- cycle %d: %s frame %d, block %d\n", ev.Cycle, ev.Kind, ev.Src, ev.Dst)
			default: // bypass, mispredict
				fmt.Fprintf(w, "- cycle %d: %s block %d (latency %d)\n", ev.Cycle, ev.Kind, ev.Src, ev.Dst)
			}
		}
		n := len(b.Events)
		if n <= 2*evRows {
			for i := range b.Events {
				show(&b.Events[i])
			}
		} else {
			for i := 0; i < evRows; i++ {
				show(&b.Events[i])
			}
			fmt.Fprintf(w, "- … %d events elided …\n", n-2*evRows)
			for i := n - evRows; i < n; i++ {
				show(&b.Events[i])
			}
		}
	}
}
