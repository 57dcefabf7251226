package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"silcfm/internal/mem"
	"silcfm/internal/memunits"
	"silcfm/internal/stats"
)

// profileMaxEntries bounds each profile map (blocks, PCs). New keys
// arriving at the cap are counted as dropped rather than evicting old ones,
// so the set of profiled keys is a deterministic function of the access
// stream.
const profileMaxEntries = 1 << 15

// BlockProfile aggregates activity for one flat 2 KB block: demand traffic
// (counted at completion, so latencies are final), subblock swap churn,
// lock transitions and bypass/mispredict pressure.
type BlockProfile struct {
	Block    uint64 `json:"block"`
	Demands  uint64 `json:"demands"`
	Writes   uint64 `json:"writes"`
	LatSum   uint64 `json:"lat_cycles"`
	SwapsIn  uint64 `json:"swaps_in"`  // subblocks delivered into NM
	SwapsOut uint64 `json:"swaps_out"` // subblocks delivered back to FM
	Locks    uint64 `json:"locks"`
	Unlocks  uint64 `json:"unlocks"`
	Bypass   uint64 `json:"bypass"`
	Mispred  uint64 `json:"mispredicts"`
}

// PCProfile aggregates demand activity for one program counter.
type PCProfile struct {
	PC      uint64 `json:"pc"`
	Demands uint64 `json:"demands"`
	Writes  uint64 `json:"writes"`
	LatSum  uint64 `json:"lat_cycles"`
	Swaps   uint64 `json:"swaps"` // demands that rode a swap's critical path
	Bypass  uint64 `json:"bypass"`
	Mispred uint64 `json:"mispredicts"`
}

// Profiler accumulates bounded per-block and per-PC hotness profiles from
// the mem.Observer stream. It only increments counters — it never
// schedules events or touches simulation state — so attaching it is
// provably inert.
//
// Demand counts and latencies are recorded at completion (mem.EvComplete)
// and keyed by the flat physical block of the access, which is
// movement-invariant. Swap churn is recorded per delivered subblock and
// keyed by the flat home block of the FM endpoint of the transfer: for
// remapping schemes (SILC, CAMEO) the FM device address IS the block's home,
// so the key identifies the migrating block exactly; for HMA's
// permutation-based mapping it identifies the FM frame involved, which is an
// approximation documented in README.md.
type Profiler struct {
	nmBlocks uint64 // NM capacity in 2 KB blocks; FM home block b lives at flat block nmBlocks+b

	blocks  map[uint64]*BlockProfile
	pcs     map[uint64]*PCProfile
	dropped [2]uint64 // [0] block keys, [1] PC keys rejected at the cap
}

// NewProfiler builds a profiler over sys's geometry holding at most
// profileMaxEntries blocks and profileMaxEntries PCs.
func NewProfiler(sys *mem.System) *Profiler {
	return &Profiler{
		nmBlocks: memunits.BlocksIn(sys.NMCap),
		blocks:   make(map[uint64]*BlockProfile),
		pcs:      make(map[uint64]*PCProfile),
	}
}

// block returns the profile for flat block b, or nil once the map is full.
func (p *Profiler) block(b uint64) *BlockProfile {
	if bp, ok := p.blocks[b]; ok {
		return bp
	}
	if len(p.blocks) >= profileMaxEntries {
		p.dropped[0]++
		return nil
	}
	bp := &BlockProfile{Block: b}
	p.blocks[b] = bp
	return bp
}

// pc returns the profile for program counter v, or nil once the map is full.
func (p *Profiler) pc(v uint64) *PCProfile {
	if pp, ok := p.pcs[v]; ok {
		return pp
	}
	if len(p.pcs) >= profileMaxEntries {
		p.dropped[1]++
		return nil
	}
	pp := &PCProfile{PC: v}
	p.pcs[v] = pp
	return pp
}

// fmHomeBlock keys a transfer by its FM endpoint's flat home block.
func (p *Profiler) fmHomeBlock(loc mem.Location) (uint64, bool) {
	if loc.Level != stats.FM {
		return 0, false
	}
	return p.nmBlocks + memunits.BlockOf(loc.DevAddr), true
}

// churn charges one delivered subblock moving src -> dst.
func (p *Profiler) churn(src, dst mem.Location) {
	if b, ok := p.fmHomeBlock(src); ok && dst.Level == stats.NM {
		if bp := p.block(b); bp != nil {
			bp.SwapsIn++
		}
		return
	}
	if b, ok := p.fmHomeBlock(dst); ok && src.Level == stats.NM {
		if bp := p.block(b); bp != nil {
			bp.SwapsOut++
		}
	}
}

// Observe implements mem.Observer. Demands are profiled at completion,
// where the path and latency are known; a swap's data movement arrives as
// deliver pairs, so its initiation event carries no extra churn.
func (p *Profiler) Observe(e mem.Event) {
	switch e.Kind {
	case mem.EvDeliver, mem.EvRelocate:
		p.churn(e.Src, e.Dst)
	case mem.EvLock:
		if bp := p.block(e.Block); bp != nil {
			bp.Locks++
		}
	case mem.EvUnlock:
		if bp := p.block(e.Block); bp != nil {
			bp.Unlocks++
		}
	case mem.EvComplete:
		p.complete(e.Access, e.Path, e.Lat)
	}
}

// complete charges one demand completion to its block and PC.
func (p *Profiler) complete(a *mem.Access, path stats.DemandPath, lat uint64) {
	if bp := p.block(memunits.BlockOf(a.PAddr)); bp != nil {
		bp.Demands++
		bp.LatSum += lat
		if a.Write {
			bp.Writes++
		}
		switch path {
		case stats.PathBypass:
			bp.Bypass++
		case stats.PathMispredict:
			bp.Mispred++
		}
	}
	if pp := p.pc(a.PC); pp != nil {
		pp.Demands++
		pp.LatSum += lat
		if a.Write {
			pp.Writes++
		}
		switch path {
		case stats.PathSwap:
			pp.Swaps++
		case stats.PathBypass:
			pp.Bypass++
		case stats.PathMispredict:
			pp.Mispred++
		}
	}
}

// Counts reports (blocks, pcs, droppedBlocks, droppedPCs).
func (p *Profiler) Counts() (blocks, pcs int, droppedBlocks, droppedPCs uint64) {
	return len(p.blocks), len(p.pcs), p.dropped[0], p.dropped[1]
}

func (p *Profiler) sortedBlocks() []*BlockProfile {
	out := make([]*BlockProfile, 0, len(p.blocks))
	for _, bp := range p.blocks {
		out = append(out, bp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Block < out[j].Block })
	return out
}

func (p *Profiler) sortedPCs() []*PCProfile {
	out := make([]*PCProfile, 0, len(p.pcs))
	for _, pp := range p.pcs {
		out = append(out, pp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PC < out[j].PC })
	return out
}

// WriteJSONL streams every profile entry as one JSON object per line —
// block entries (key ascending), then PC entries (key ascending), then a
// summary line — so output is byte-deterministic for a fixed run.
func (p *Profiler) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, bp := range p.sortedBlocks() {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			*BlockProfile
		}{"block", bp}); err != nil {
			return err
		}
	}
	for _, pp := range p.sortedPCs() {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			*PCProfile
		}{"pc", pp}); err != nil {
			return err
		}
	}
	return enc.Encode(struct {
		Kind          string `json:"kind"`
		Blocks        int    `json:"blocks"`
		PCs           int    `json:"pcs"`
		DroppedBlocks uint64 `json:"dropped_blocks"`
		DroppedPCs    uint64 `json:"dropped_pcs"`
	}{"summary", len(p.blocks), len(p.pcs), p.dropped[0], p.dropped[1]})
}

// hotter orders profiles for the top-offender tables: demand count
// descending, then churn descending, then key ascending (a total,
// deterministic order).
func hotter(d1, c1, k1, d2, c2, k2 uint64) bool {
	if d1 != d2 {
		return d1 > d2
	}
	if c1 != c2 {
		return c1 > c2
	}
	return k1 < k2
}

func meanLat(sum, n uint64) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", float64(sum)/float64(n))
}

// TopOffenders renders the k hottest blocks and PCs as aligned tables.
func (p *Profiler) TopOffenders(k int) string {
	if k <= 0 {
		k = 10
	}
	blocks := p.sortedBlocks()
	sort.SliceStable(blocks, func(i, j int) bool {
		return hotter(blocks[i].Demands, blocks[i].SwapsIn+blocks[i].SwapsOut, blocks[i].Block,
			blocks[j].Demands, blocks[j].SwapsIn+blocks[j].SwapsOut, blocks[j].Block)
	})
	if len(blocks) > k {
		blocks = blocks[:k]
	}
	bt := &stats.Table{
		Title:   fmt.Sprintf("top %d blocks by demand (of %d profiled, %d dropped)", len(blocks), len(p.blocks), p.dropped[0]),
		Columns: []string{"block", "demands", "writes", "mean_lat", "swaps_in", "swaps_out", "locks", "unlocks", "bypass", "mispred"},
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, b := range blocks {
		bt.AddRow(u(b.Block), u(b.Demands), u(b.Writes), meanLat(b.LatSum, b.Demands),
			u(b.SwapsIn), u(b.SwapsOut), u(b.Locks), u(b.Unlocks), u(b.Bypass), u(b.Mispred))
	}

	pcs := p.sortedPCs()
	sort.SliceStable(pcs, func(i, j int) bool {
		return hotter(pcs[i].Demands, pcs[i].Swaps, pcs[i].PC,
			pcs[j].Demands, pcs[j].Swaps, pcs[j].PC)
	})
	if len(pcs) > k {
		pcs = pcs[:k]
	}
	pt := &stats.Table{
		Title:   fmt.Sprintf("top %d PCs by demand (of %d profiled, %d dropped)", len(pcs), len(p.pcs), p.dropped[1]),
		Columns: []string{"pc", "demands", "writes", "mean_lat", "swaps", "bypass", "mispred"},
	}
	for _, c := range pcs {
		pt.AddRow("0x"+strconv.FormatUint(c.PC, 16), u(c.Demands), u(c.Writes),
			meanLat(c.LatSum, c.Demands), u(c.Swaps), u(c.Bypass), u(c.Mispred))
	}
	return bt.String() + "\n" + pt.String()
}
