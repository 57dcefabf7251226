package config

import (
	"math"
	"testing"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
}

// Table II: HBM peak bandwidth must be 4x DDR3 peak bandwidth; this ratio is
// what makes the paper's 0.8 bypass target optimal.
func TestBandwidthRatioIs4to1(t *testing.T) {
	nm := HBM(128 << 20)
	fm := DDR3(512 << 20)
	ratio := nm.PeakBandwidthGBs() / fm.PeakBandwidthGBs()
	if math.Abs(ratio-4.0) > 1e-9 {
		t.Fatalf("NM:FM peak bandwidth ratio = %v, want 4.0", ratio)
	}
	// Absolute values per Table II: 8ch x 128b x 1600MT/s = 204.8 GB/s HBM,
	// 4ch x 64b x 1600MT/s = 51.2 GB/s DDR3.
	if math.Abs(nm.PeakBandwidthGBs()-204.8) > 0.1 {
		t.Errorf("HBM peak = %v GB/s, want 204.8", nm.PeakBandwidthGBs())
	}
	if math.Abs(fm.PeakBandwidthGBs()-51.2) > 0.1 {
		t.Errorf("DDR3 peak = %v GB/s, want 51.2", fm.PeakBandwidthGBs())
	}
}

func TestMemCyclesToCPU(t *testing.T) {
	d := DDR3(1 << 20)
	// 800 MHz bus under a 3200 MHz core: 1 mem cycle = 4 CPU cycles.
	if got := d.MemCyclesToCPU(1); got != 4 {
		t.Fatalf("MemCyclesToCPU(1) = %d, want 4", got)
	}
	if got := d.MemCyclesToCPU(11); got != 44 {
		t.Fatalf("MemCyclesToCPU(11) = %d, want 44", got)
	}
}

func TestBurstCycles(t *testing.T) {
	fm := DDR3(1 << 20)
	// 64B on a 64-bit DDR bus: 8 beats = 4 mem cycles = 16 CPU cycles.
	if got := fm.BurstCPUCycles(64); got != 16 {
		t.Fatalf("DDR3 64B burst = %d CPU cycles, want 16", got)
	}
	nm := HBM(1 << 20)
	// 64B on a 128-bit DDR bus: 4 beats = 2 mem cycles = 8 CPU cycles.
	if got := nm.BurstCPUCycles(64); got != 8 {
		t.Fatalf("HBM 64B burst = %d CPU cycles, want 8", got)
	}
	if got := nm.BurstCPUCycles(1); got == 0 {
		t.Fatal("burst of 1 byte must occupy at least one cycle")
	}
}

func TestNMLatencyAdvantage(t *testing.T) {
	nm, fm := HBM(1<<20), DDR3(1<<20)
	nmMiss := nm.MemCyclesToCPU(nm.Timing.TRP + nm.Timing.TRCD + nm.Timing.TCAS)
	fmMiss := fm.MemCyclesToCPU(fm.Timing.TRP + fm.Timing.TRCD + fm.Timing.TCAS)
	if nmMiss >= fmMiss {
		t.Fatalf("NM row-miss latency %d !< FM %d; paper: NM has slightly reduced latency", nmMiss, fmMiss)
	}
}

func TestWithNMRatio(t *testing.T) {
	m := Default()
	for _, den := range []uint64{16, 8, 4} {
		m2 := m.WithNMRatio(den)
		if m2.NM.Capacity*den != m2.FM.Capacity {
			t.Errorf("ratio 1/%d: NM=%d FM=%d", den, m2.NM.Capacity, m2.FM.Capacity)
		}
		if err := m2.Validate(); err != nil {
			t.Errorf("ratio 1/%d invalid: %v", den, err)
		}
	}
}

func TestTotalCapacity(t *testing.T) {
	m := Default()
	if m.TotalCapacity() != m.NM.Capacity+m.FM.Capacity {
		t.Fatal("part-of-memory schemes must expose NM+FM")
	}
	m.Scheme = SchemeBaseline
	if m.TotalCapacity() != m.FM.Capacity {
		t.Fatal("baseline exposes FM only")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero cores", func(m *Machine) { m.Cores = 0 }},
		{"bad page size", func(m *Machine) { m.PageSize = 4096 }},
		{"NM not multiple of block", func(m *Machine) { m.NM.Capacity = 12345 }},
		{"FM not multiple of NM", func(m *Machine) { m.FM.Capacity = m.NM.Capacity*3 + 2048 }},
		{"bad ways", func(m *Machine) { m.SILC.Features.Ways = 3 }},
		{"bad bypass", func(m *Machine) { m.SILC.BypassTarget = 1.5 }},
		{"bad core", func(m *Machine) { m.Core.MSHRs = 0 }},
		{"bad line size", func(m *Machine) { m.L1D.LineSize = 32 }},
		{"indivisible cache", func(m *Machine) { m.L2.Size = 1<<20 + 64 }},
		// Each of these used to panic (divide by zero in Validate, or in
		// cache.New / dram.New) instead of returning an error.
		{"zero L1 ways", func(m *Machine) { m.L1D.Ways = 0 }},
		{"negative L2 ways", func(m *Machine) { m.L2.Ways = -16 }},
		{"too many ways", func(m *Machine) { m.L2.Ways, m.L2.Size = 512, 512*64*16 }},
		{"non-power-of-two sets", func(m *Machine) { m.L2.Size = 3 << 20 }},
		{"zero NM capacity", func(m *Machine) { m.NM.Capacity = 0 }},
		{"zero FM capacity", func(m *Machine) { m.FM.Capacity = 0 }},
		{"zero NM channels", func(m *Machine) { m.NM.Channels = 0 }},
		{"zero FM ranks", func(m *Machine) { m.FM.RanksPerChan = 0 }},
		{"zero NM banks", func(m *Machine) { m.NM.BanksPerRank = 0 }},
		{"zero FM bus clock", func(m *Machine) { m.FM.BusMHz = 0 }},
		{"zero NM bus width", func(m *Machine) { m.NM.BusWidthBits = 0 }},
		{"row buffer below a line", func(m *Machine) { m.FM.RowBufferSize = 32 }},
		// Geometry beyond the DRAM queue key used to reach dram.New's panic.
		{"banks beyond the queue key", func(m *Machine) { m.NM.RanksPerChan, m.NM.BanksPerRank = 2, 1<<16 }},
		{"rows beyond the queue key", func(m *Machine) {
			m.FM.Channels, m.FM.RanksPerChan, m.FM.BanksPerRank, m.FM.RowBufferSize = 1, 1, 1, 64
			m.FM.Capacity = 1 << 60
		}},
	}
	for _, c := range cases {
		m := Default()
		c.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid config", c.name)
		}
	}
}

// TestQueueKeyLimitsAreInclusive: the largest geometry the queue key holds
// passes, one bank or one row more does not.
func TestQueueKeyLimitsAreInclusive(t *testing.T) {
	d := DDR3(1 << 20)
	d.RanksPerChan, d.BanksPerRank = 1, 1<<QueueKeyBankBits
	if err := d.CheckQueueKey(); err != nil {
		t.Errorf("%d banks per channel rejected: %v", 1<<QueueKeyBankBits, err)
	}
	d.RanksPerChan = 2
	if d.CheckQueueKey() == nil {
		t.Errorf("%d banks per channel accepted", 2<<QueueKeyBankBits)
	}
	d = DDR3(0)
	d.Channels, d.RanksPerChan, d.BanksPerRank, d.RowBufferSize = 1, 1, 1, 64
	d.Capacity = 64 << (64 - QueueKeyBankBits) // rows 0 .. 2^48-1
	if err := d.CheckQueueKey(); err != nil {
		t.Errorf("2^48 rows rejected: %v", err)
	}
	d.Capacity += 64
	if d.CheckQueueKey() == nil {
		t.Error("row 2^48 accepted")
	}
}

func TestEnergyOrdering(t *testing.T) {
	nm, fm := HBM(1), DDR3(1)
	if nm.ReadEnergyPJPerBit >= fm.ReadEnergyPJPerBit {
		t.Fatal("HBM access energy must be below DDR3 (paper: die-stacked DRAM's low energy)")
	}
}
