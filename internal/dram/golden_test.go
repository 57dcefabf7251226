package dram

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"unsafe"

	"silcfm/internal/config"
	"silcfm/internal/sim"
)

// goldenStream drives d with a fixed seeded mix — demand reads, writes and
// background reads; streaming row hits, same-bank row conflicts and random
// addresses; bursts large enough to push the write queue into drain mode —
// submitted from engine events spread over time. It returns a digest of
// the completion order, every request's latency decomposition, the final
// clock, Stats, BankCounters and ChannelCounters, and whether any channel
// was seen draining.
func goldenStream(eng *sim.Engine, d *Device, seed int64, bursts int) (string, bool) {
	rng := rand.New(rand.NewSource(seed))
	h := sha256.New()
	rowStride := d.nChan * d.banksPerChan * d.Cfg.RowBufferSize
	capacity := d.Cfg.Capacity
	var cursor uint64
	nextID := 0
	sawDrain := false

	submit := func(write, background bool, addr uint64) {
		id := nextID
		nextID++
		d.Submit(Request{
			Addr: addr % capacity, Write: write, Background: background,
			MetaBytes: uint64(rng.Intn(2)) * 8,
			Done:      func() { fmt.Fprintf(h, "done %d @%d\n", id, eng.Now()) },
			Trace:     func(q, s uint64) { fmt.Fprintf(h, "trace %d q%d s%d\n", id, q, s) },
		})
	}
	var burst func()
	left := bursts
	burst = func() {
		for i := range d.chans {
			sawDrain = sawDrain || d.chans[i].draining
		}
		n := 1 + rng.Intn(48)
		writeHeavy := rng.Intn(4) == 0
		for i := 0; i < n; i++ {
			var addr uint64
			switch rng.Intn(3) {
			case 0: // streaming: consecutive blocks share rows
				addr = cursor
				cursor += 64
			case 1: // conflicts: one bank, eight rows
				addr = uint64(rng.Intn(8)) * rowStride
			default:
				addr = uint64(rng.Int63n(int64(capacity))) &^ 63
			}
			k := rng.Intn(10)
			switch {
			case writeHeavy || k < 3:
				submit(true, false, addr)
			case k == 3:
				submit(false, true, addr)
			default:
				submit(false, false, addr)
			}
		}
		left--
		if left > 0 {
			eng.After(sim.Cycle(rng.Intn(400)), burst)
		}
	}
	eng.At(0, burst)
	eng.Run()

	fmt.Fprintf(h, "now %d\nstats %+v\n", eng.Now(), *d.Stats())
	for i, b := range d.BankCounters() {
		fmt.Fprintf(h, "bank %d %+v\n", i, b)
	}
	for i, c := range d.ChannelCounters() {
		fmt.Fprintf(h, "chan %d %+v\n", i, c)
	}
	io.WriteString(h, "end\n")
	return hex.EncodeToString(h.Sum(nil)), sawDrain
}

// TestSchedulerGoldenDigest pins the device model's exact observable
// behaviour on HBM and DDR3: completion order and time, per-request
// queue/service split, Stats and both introspection ledgers must reproduce
// the digests recorded from the wide-op, 80-byte queue entry scheduler.
func TestSchedulerGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.DRAMConfig
		want string
	}{
		{"hbm", config.HBM(16 << 20), "b1f2d866c9f4d9802f6924d4f93b4634d2edf2b59727f95fe2d4aa2eb6733ade"},
		{"ddr3", config.DDR3(64 << 20), "d489f8b734e830e74c1c6e88cf09dc7c95c098620694202401a083d0c19034c6"},
	} {
		eng := sim.NewEngine()
		d := New(tc.cfg, eng)
		got, drained := goldenStream(eng, d, 42, 600)
		if !drained {
			t.Errorf("%s: stream never put a channel into write-drain mode", tc.name)
		}
		if tot := d.TotalBankCounters(); tot.RowHits == 0 || tot.RowConflicts == 0 {
			t.Errorf("%s: stream lacks row hits (%d) or conflicts (%d)", tc.name, tot.RowHits, tot.RowConflicts)
		}
		if got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestQueuedOpFootprint bounds the memory one queued request costs: its
// pooled op, its queue key and slot index, and its free-list entry once
// issued. The wide-op queue spent 80 bytes per request; deep FM queues
// hold thousands.
func TestQueuedOpFootprint(t *testing.T) {
	per := unsafe.Sizeof(op{}) + unsafe.Sizeof(uint64(0)) + 2*unsafe.Sizeof(int32(0))
	if per > 72 {
		t.Fatalf("a queued request costs %d bytes, want <= 72", per)
	}
}

// BenchmarkDeviceDeepQueue keeps 256 row-conflicting reads queued on one
// DDR3 bank. The reads cycle through 64 rows, so no two in one 32-op
// window share a row: every issue scans a full FR-FCFS window without a
// row hit, then issues the oldest op as a conflict.
func BenchmarkDeviceDeepQueue(b *testing.B) {
	eng := sim.NewEngine()
	d := New(config.DDR3(256<<20), eng)
	rowStride := d.nChan * d.banksPerChan * d.Cfg.RowBufferSize
	for i := 0; i < 256; i++ {
		d.Submit(Request{Addr: uint64(i%64) * rowStride})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Submit(Request{Addr: uint64(i%64) * rowStride})
		for d.QueueDepth() > 256 {
			eng.Step()
		}
	}
	b.StopTimer()
	eng.Run()
}
