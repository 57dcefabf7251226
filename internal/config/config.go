// Package config describes the simulated machine (paper Table II) and the
// parameters of every memory-organization scheme, at capacities scaled down
// proportionally so simulations finish in seconds rather than days. The
// NM:FM capacity ratio (1:4 by default), the HBM:DDR3 bandwidth ratio (4:1)
// and all timing relationships from the paper are preserved.
package config

import (
	"fmt"

	"silcfm/internal/memunits"
)

// DRAMTiming holds per-device timing parameters in *memory bus* cycles,
// following Table II's tCAS-tRCD-tRP-tRAS row.
type DRAMTiming struct {
	TCAS uint64 // column access (read latency from open row)
	TRCD uint64 // row activate to column
	TRP  uint64 // precharge
	TRAS uint64 // minimum row-open time
	TWR  uint64 // write recovery
	// Refresh: every TREFI cycles all banks of a channel are unavailable
	// for TRFC cycles (0 disables refresh).
	TREFI uint64
	TRFC  uint64
}

// PagePolicy selects the row-buffer management policy.
type PagePolicy int

const (
	// OpenPage keeps rows open after access (Table II's policy).
	OpenPage PagePolicy = iota
	// ClosedPage auto-precharges after every access: no row hits, no row
	// conflicts. Provided for ablation studies.
	ClosedPage
)

// DRAMConfig describes one memory device per Table II.
type DRAMConfig struct {
	Name          string
	Capacity      uint64 // bytes
	BusMHz        uint64 // bus clock (DDR: data rate is 2x)
	BusWidthBits  uint64 // per channel
	Channels      int
	RanksPerChan  int
	BanksPerRank  int
	RowBufferSize uint64
	Policy        PagePolicy // row-buffer policy (default OpenPage)
	Timing        DRAMTiming
	ReadQueueLen  int // FR-FCFS scheduling window, per channel
	WriteQueueLen int

	// Energy model (per-device technology constants).
	ReadEnergyPJPerBit  float64
	WriteEnergyPJPerBit float64
	ActivateEnergyPJ    float64 // per row activation
	BackgroundMWPerChan float64 // static power per channel, milliwatts
}

// CPUFreqMHz is the core clock (Table II: 3.2 GHz).
const CPUFreqMHz = 3200

// MemCyclesToCPU converts memory-bus cycles to CPU cycles for a device.
func (d *DRAMConfig) MemCyclesToCPU(mc uint64) uint64 {
	return mc * CPUFreqMHz / d.BusMHz
}

// BurstCPUCycles returns the CPU cycles the data bus is occupied
// transferring `bytes` on one channel (DDR: two beats per bus cycle).
func (d *DRAMConfig) BurstCPUCycles(bytes uint64) uint64 {
	beats := (bytes*8 + d.BusWidthBits - 1) / d.BusWidthBits
	memCycles := (beats + 1) / 2 // DDR
	if memCycles == 0 {
		memCycles = 1
	}
	return d.MemCyclesToCPU(memCycles)
}

// PeakBandwidthGBs returns the theoretical peak bandwidth in GB/s.
func (d *DRAMConfig) PeakBandwidthGBs() float64 {
	bytesPerSec := float64(d.BusMHz) * 1e6 * 2 * float64(d.BusWidthBits) / 8 * float64(d.Channels)
	return bytesPerSec / 1e9
}

// HBM returns the near-memory device configuration (Table II, HBM gen2,
// JEDEC 235A-derived timings) at the given capacity.
func HBM(capacity uint64) DRAMConfig {
	return DRAMConfig{
		Name:          "HBM",
		Capacity:      capacity,
		BusMHz:        800,
		BusWidthBits:  128,
		Channels:      8,
		RanksPerChan:  1,
		BanksPerRank:  8,
		RowBufferSize: 8 << 10,
		Timing:        DRAMTiming{TCAS: 9, TRCD: 9, TRP: 9, TRAS: 22, TWR: 10, TREFI: 6240, TRFC: 208},
		ReadQueueLen:  32,
		WriteQueueLen: 32,

		ReadEnergyPJPerBit:  4.0,
		WriteEnergyPJPerBit: 4.4,
		ActivateEnergyPJ:    900,
		BackgroundMWPerChan: 55,
	}
}

// DDR3 returns the far-memory device configuration (Table II, DDR3-1600,
// JEDEC/vendor datasheet timings) at the given capacity.
func DDR3(capacity uint64) DRAMConfig {
	return DRAMConfig{
		Name:          "DDR3",
		Capacity:      capacity,
		BusMHz:        800,
		BusWidthBits:  64,
		Channels:      4,
		RanksPerChan:  1,
		BanksPerRank:  8,
		RowBufferSize: 8 << 10,
		Timing:        DRAMTiming{TCAS: 11, TRCD: 11, TRP: 11, TRAS: 28, TWR: 12, TREFI: 6240, TRFC: 208},
		ReadQueueLen:  32,
		WriteQueueLen: 32,

		ReadEnergyPJPerBit:  19.5,
		WriteEnergyPJPerBit: 21.1,
		ActivateEnergyPJ:    2500,
		BackgroundMWPerChan: 90,
	}
}

// CacheConfig describes one cache level (Table II).
type CacheConfig struct {
	Size       uint64
	Ways       int
	LatencyCyc uint64
	LineSize   uint64
	WriteBack  bool
}

// CoreConfig describes the core model (Table II: 4-wide OoO, 128-entry ROB).
type CoreConfig struct {
	IssueWidth int // retired instructions per cycle when unblocked
	ROBSize    int // max instructions in flight past oldest outstanding miss
	MSHRs      int // max outstanding LLC misses per core
}

// SchemeName identifies a memory-organization scheme.
type SchemeName string

const (
	SchemeBaseline SchemeName = "base" // FM only (no die-stacked DRAM)
	SchemeRandom   SchemeName = "rand" // random static placement, no migration
	SchemeHMA      SchemeName = "hma"  // epoch-based OS migration
	SchemeCAMEO    SchemeName = "cam"  // 64B hardware swapping
	SchemeCAMEOP   SchemeName = "camp" // CAMEO + next-3-line prefetch
	SchemePoM      SchemeName = "pom"  // 2KB hardware migration
	SchemeSILCFM   SchemeName = "silc" // the paper's scheme
)

// AllSchemes lists every implemented scheme in the order the paper plots
// them (Figure 7).
var AllSchemes = []SchemeName{
	SchemeRandom, SchemeHMA, SchemeCAMEO, SchemeCAMEOP, SchemePoM, SchemeSILCFM,
}

// SILCFeatures selects which SILC-FM mechanisms are active, enabling the
// Figure 6 breakdown (swap -> +locking -> +associativity -> +bypass).
type SILCFeatures struct {
	Locking       bool
	Ways          int // NM set associativity: 1 (direct-mapped) .. 4
	Bypass        bool
	Predictor     bool // way/location predictor (latency optimization, §III-F)
	BitVecHistory bool // bit vector history table replay (§III-A)
}

// FullSILC enables every feature at the paper's chosen design point.
func FullSILC() SILCFeatures {
	return SILCFeatures{Locking: true, Ways: 4, Bypass: true, Predictor: true, BitVecHistory: true}
}

// SILCConfig holds SILC-FM tuning parameters (§III-B/C/E/F).
type SILCConfig struct {
	Features SILCFeatures

	HotThreshold     uint32  // counter value at which a block is locked (paper: 50)
	CounterBits      int     // aging counter width (paper: 6)
	AgingInterval    uint64  // memory accesses between right-shifts (paper: 1M)
	BypassTarget     float64 // access-rate ceiling (paper: 0.8 for 4:1 bandwidth)
	HistoryEntries   int     // bit vector history table entries
	PredictorEntries int     // way/location predictor entries (paper: 4K)
}

// DefaultSILC returns the paper's design point, scaled where noted.
func DefaultSILC() SILCConfig {
	return SILCConfig{
		Features:         FullSILC(),
		HotThreshold:     16, // paper: 50 at 16 B instructions; scaled with run length
		CounterBits:      6,
		AgingInterval:    1 << 19, // paper: 1M accesses; scaled with run length
		BypassTarget:     0.8,
		HistoryEntries:   1 << 16, // scaled from 1M with capacity
		PredictorEntries: 4096,
	}
}

// HMAConfig holds the epoch-based OS scheme's parameters (§II-C).
type HMAConfig struct {
	EpochCycles        uint64 // epoch length in CPU cycles
	HotThreshold       uint32 // per-page access count to mark hot
	PerPageOSOverhead  uint64 // CPU cycles per migrated page (PTE+TLB shootdown)
	EpochFixedOverhead uint64 // CPU cycles per epoch (sweep, context switch)
}

// DefaultHMA scales the paper's hundreds-of-ms epochs down with capacity.
func DefaultHMA() HMAConfig {
	return HMAConfig{
		EpochCycles:        4 << 20, // ~4.2M cycles (~1.3ms at 3.2GHz), scaled
		HotThreshold:       10,      // scaled with the shortened epoch
		PerPageOSOverhead:  250,     // PTE update + amortized, batched TLB shootdown
		EpochFixedOverhead: 50000,
	}
}

// PoMConfig holds Part-of-Memory parameters (§II-B).
type PoMConfig struct {
	MigrationThreshold uint32 // accesses before a 2KB block migrates
	Ways               int    // remap associativity within a congruence set
}

// DefaultPoM mirrors the PoM paper's threshold-triggered migration.
func DefaultPoM() PoMConfig { return PoMConfig{MigrationThreshold: 16, Ways: 1} }

// CAMEOConfig holds CAMEO parameters.
type CAMEOConfig struct {
	PrefetchLines int // 0 for original CAMEO; 3 for CAMEOP (paper §IV-A)
}

// Machine is the complete simulated system configuration.
type Machine struct {
	Cores    int
	Core     CoreConfig
	L1D      CacheConfig
	L2       CacheConfig // shared LLC
	NM       DRAMConfig
	FM       DRAMConfig
	PageSize uint64 // OS page size == large block size (2KB)
	Scheme   SchemeName
	SILC     SILCConfig
	HMA      HMAConfig
	PoM      PoMConfig
	CAMEO    CAMEOConfig
	Seed     int64
}

// Default returns the scaled Table II machine: 16 cores, 8MB shared LLC,
// NM = 128 MB HBM, FM = 512 MB DDR3 (1:4, as in the paper's main results).
func Default() Machine {
	return Machine{
		Cores:    16,
		Core:     CoreConfig{IssueWidth: 4, ROBSize: 128, MSHRs: 16},
		L1D:      CacheConfig{Size: 16 << 10, Ways: 4, LatencyCyc: 4, LineSize: 64, WriteBack: true},
		L2:       CacheConfig{Size: 8 << 20, Ways: 16, LatencyCyc: 11, LineSize: 64, WriteBack: true},
		NM:       HBM(128 << 20),
		FM:       DDR3(512 << 20),
		PageSize: memunits.BlockSize,
		Scheme:   SchemeSILCFM,
		SILC:     DefaultSILC(),
		HMA:      DefaultHMA(),
		PoM:      DefaultPoM(),
		CAMEO:    CAMEOConfig{},
		Seed:     1,
	}
}

// Small returns a reduced machine for fast unit/integration tests:
// 4 cores, NM 4 MB, FM 16 MB, 1 MB LLC.
func Small() Machine {
	m := Default()
	m.Cores = 4
	m.L2 = CacheConfig{Size: 512 << 10, Ways: 16, LatencyCyc: 11, LineSize: 64, WriteBack: true}
	m.NM = HBM(4 << 20)
	m.FM = DDR3(16 << 20)
	m.SILC.AgingInterval = 1 << 16
	m.SILC.HistoryEntries = 1 << 12
	m.HMA.EpochCycles = 1 << 18
	return m
}

// WithNMRatio returns a copy of m with NM capacity set to FM/den (Figure 9
// sweeps den = 16, 8, 4).
func (m Machine) WithNMRatio(den uint64) Machine {
	m.NM = HBM(m.FM.Capacity / den)
	return m
}

// TotalCapacity returns the OS-visible flat capacity (NM + FM for
// part-of-memory schemes; FM alone for the no-NM baseline).
func (m Machine) TotalCapacity() uint64 {
	if m.Scheme == SchemeBaseline {
		return m.FM.Capacity
	}
	return m.NM.Capacity + m.FM.Capacity
}

// Validate checks internal consistency.
func (m Machine) Validate() error {
	if m.Cores <= 0 {
		return fmt.Errorf("config: cores = %d", m.Cores)
	}
	if m.PageSize != memunits.BlockSize {
		return fmt.Errorf("config: page size %d != large block size %d", m.PageSize, memunits.BlockSize)
	}
	if m.NM.Capacity == 0 || m.FM.Capacity == 0 {
		return fmt.Errorf("config: capacities must be positive: NM %d, FM %d", m.NM.Capacity, m.FM.Capacity)
	}
	if m.NM.Capacity%memunits.BlockSize != 0 || m.FM.Capacity%memunits.BlockSize != 0 {
		return fmt.Errorf("config: capacities must be multiples of %d", memunits.BlockSize)
	}
	if m.FM.Capacity%m.NM.Capacity != 0 {
		return fmt.Errorf("config: FM capacity %d not a multiple of NM capacity %d", m.FM.Capacity, m.NM.Capacity)
	}
	if w := m.SILC.Features.Ways; w != 1 && w != 2 && w != 4 {
		return fmt.Errorf("config: SILC ways = %d, want 1, 2 or 4", w)
	}
	if m.SILC.BypassTarget <= 0 || m.SILC.BypassTarget > 1 {
		return fmt.Errorf("config: bypass target %v out of (0,1]", m.SILC.BypassTarget)
	}
	if m.Core.IssueWidth <= 0 || m.Core.ROBSize <= 0 || m.Core.MSHRs <= 0 {
		return fmt.Errorf("config: core parameters must be positive: %+v", m.Core)
	}
	for _, d := range []DRAMConfig{m.NM, m.FM} {
		if err := d.validate(); err != nil {
			return err
		}
	}
	for _, c := range []CacheConfig{m.L1D, m.L2} {
		if c.LineSize != memunits.SubblockSize {
			return fmt.Errorf("config: cache line size %d != subblock size", c.LineSize)
		}
		// The cache's MRU probe indexes ways with a uint8.
		if c.Ways <= 0 || c.Ways > 256 {
			return fmt.Errorf("config: cache ways = %d, want 1..256", c.Ways)
		}
		if c.Size%(c.LineSize*uint64(c.Ways)) != 0 {
			return fmt.Errorf("config: cache size %d not divisible into %d ways", c.Size, c.Ways)
		}
		if sets := c.Size / (c.LineSize * uint64(c.Ways)); sets == 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("config: cache of %d B in %d ways has %d sets, want a power of two", c.Size, c.Ways, sets)
		}
	}
	return nil
}

// validate rejects the zero divisors of the device's address mapping and
// clock conversion.
func (d DRAMConfig) validate() error {
	if d.Channels <= 0 || d.RanksPerChan <= 0 || d.BanksPerRank <= 0 {
		return fmt.Errorf("config: %s geometry must be positive: %d channels, %d ranks/channel, %d banks/rank",
			d.Name, d.Channels, d.RanksPerChan, d.BanksPerRank)
	}
	if d.BusMHz == 0 || d.BusWidthBits == 0 {
		return fmt.Errorf("config: %s bus must be positive: %d MHz, %d bits", d.Name, d.BusMHz, d.BusWidthBits)
	}
	if d.RowBufferSize < memunits.SubblockSize {
		return fmt.Errorf("config: %s row buffer %d B smaller than a %d B line", d.Name, d.RowBufferSize, memunits.SubblockSize)
	}
	return d.CheckQueueKey()
}

// QueueKeyBankBits is the width of the channel-local bank field in the
// 8-byte key internal/dram packs each queued request into; the row index
// takes the remaining 64-QueueKeyBankBits bits.
const QueueKeyBankBits = 16

// CheckQueueKey rejects geometry the DRAM request-queue key cannot hold:
// more than 1<<QueueKeyBankBits banks per channel, or a capacity whose last
// row index needs more than 64-QueueKeyBankBits bits. Lines interleave
// across channels, then banks, then the columns of a row, as
// internal/dram maps them. Zero geometry is left to Validate's other
// checks.
func (d DRAMConfig) CheckQueueKey() error {
	banks := uint64(d.RanksPerChan) * uint64(d.BanksPerRank)
	if banks > 1<<QueueKeyBankBits {
		return fmt.Errorf("config: %s has %d banks per channel, beyond the %d-bit queue key field",
			d.Name, banks, QueueKeyBankBits)
	}
	lines := d.RowBufferSize / memunits.SubblockSize
	if d.Capacity == 0 || d.Channels <= 0 || banks == 0 || lines == 0 {
		return nil
	}
	if row := (d.Capacity - 1) / memunits.SubblockSize / uint64(d.Channels) / banks / lines; row >= 1<<(64-QueueKeyBankBits) {
		return fmt.Errorf("config: %s capacity %d needs row %d, beyond the %d-bit queue key field",
			d.Name, d.Capacity, row, 64-QueueKeyBankBits)
	}
	return nil
}
