package flightrec_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
	"silcfm/internal/health"
	"silcfm/internal/mem"
	"silcfm/internal/stats"
	"silcfm/internal/telemetry/exemplar"
)

// saturatingSpec is a short SILC-FM mcf run on the perfbench machine shape
// (4 cores, 2 MiB LLC, 4 MiB HBM NM, 16 MiB DDR3 FM, footprints divided by
// 8). mcf touches more distinct blocks per epoch than the offender table
// admits, so epochs report OffendersDropped > 0 — the regime the CI
// postmortem config never reaches.
func saturatingSpec() harness.Spec {
	m := config.Default()
	m.Cores = 4
	m.L2.Size = 2 << 20
	m.NM = config.HBM(4 << 20)
	m.FM = config.DDR3(16 << 20)
	m.Scheme = config.SchemeSILCFM
	m.Seed = 1
	return harness.Spec{
		Machine:      m,
		Workload:     "mcf",
		InstrPerCore: 1_000_000,
		FootScaleNum: 1,
		FootScaleDen: 8,
	}
}

// Digests of the saturating run's outputs, recorded from the
// linear-probe, 1024-slot offender table. Any change to the offender
// table, the DRAM scheduler or the event engine must reproduce them.
const (
	saturatingBundlesSHA   = "8e414fe81c323bd2bad54b78b7ede626777ca6f5f380bf57836856d7beed3835"
	saturatingExemplarsSHA = "d5d928b24d675bb27d6767f6b72792d55596cfecff0e3917e32f6625dfd51943"
)

// TestSaturatedOffenderTableBundleBytes pins the postmortem bundle JSON and
// the exemplar JSONL of a run whose offender table overflows.
func TestSaturatedOffenderTableBundleBytes(t *testing.T) {
	res, err := harness.Run(saturatingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bundles) == 0 {
		t.Fatal("saturating run captured no bundles")
	}
	saturated := false
	bh := sha256.New()
	for i := range res.Bundles {
		for _, ep := range res.Bundles[i].Epochs {
			if ep.OffendersDropped > 0 {
				saturated = true
			}
		}
		if err := res.Bundles[i].Encode(bh); err != nil {
			t.Fatal(err)
		}
	}
	if !saturated {
		t.Fatal("no captured epoch overflowed the offender table (OffendersDropped == 0)")
	}
	var ex bytes.Buffer
	if err := exemplar.WriteJSONL(&ex, res.Exemplars); err != nil {
		t.Fatal(err)
	}
	if ex.Len() == 0 {
		t.Fatal("saturating run captured no exemplars")
	}
	eh := sha256.Sum256(ex.Bytes())
	if got := hex.EncodeToString(bh.Sum(nil)); got != saturatingBundlesSHA {
		t.Errorf("bundle JSON sha256 = %s, want %s", got, saturatingBundlesSHA)
	}
	if got := hex.EncodeToString(eh[:]); got != saturatingExemplarsSHA {
		t.Errorf("exemplar JSONL sha256 = %s, want %s", got, saturatingExemplarsSHA)
	}
}

// refOffenders is the naive model of one epoch's offender table: a map
// that admits the first admitCap distinct blocks of the epoch, counts every
// demand to a block it could not admit as dropped, and ranks by a full sort
// (demands desc, block asc).
type refOffenders struct {
	admitCap int
	sum      map[uint64]*flightrec.Offender
	dropped  uint64
}

func newRefOffenders(admitCap int) *refOffenders {
	return &refOffenders{admitCap: admitCap, sum: map[uint64]*flightrec.Offender{}}
}

func (m *refOffenders) bump(block, lat uint64) {
	if o, ok := m.sum[block]; ok {
		o.Demands++
		o.LatCycles += lat
		return
	}
	if len(m.sum) == m.admitCap {
		m.dropped++
		return
	}
	m.sum[block] = &flightrec.Offender{Block: block, Demands: 1, LatCycles: lat}
}

func (m *refOffenders) top(k int) []flightrec.Offender {
	out := make([]flightrec.Offender, 0, len(m.sum))
	for _, o := range m.sum {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Demands != out[j].Demands {
			return out[i].Demands > out[j].Demands
		}
		return out[i].Block < out[j].Block
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// offenderAdmitCap is the number of distinct blocks one epoch's offender
// table keys; later blocks are counted as dropped.
const offenderAdmitCap = 1024

// TestOffenderTableMatchesReference feeds epochs that overflow the offender
// table (more than 1024 distinct blocks, repeats, re-hits of admitted
// blocks after the table filled and re-hits of dropped blocks) plus one
// epoch that does not, and requires every epoch's Offenders,
// OffenderBlocks and OffendersDropped to equal the naive reference.
func TestOffenderTableMatchesReference(t *testing.T) {
	for _, topK := range []int{flightrec.DefaultTopK, offenderAdmitCap} {
		r := newRec(t, flightrec.Config{HistoryEpochs: 4, TailEpochs: 1, TopK: topK})
		rng := rand.New(rand.NewSource(int64(topK)))
		var refs []*refOffenders
		hit := func(ref *refOffenders, block uint64) {
			lat := uint64(20 + rng.Intn(500))
			complete(r, &mem.Access{PAddr: block << 11}, stats.PathFM, lat)
			ref.bump(block, lat)
		}
		// distinct blocks per epoch: saturated, saturated, under the cap.
		for e, distinct := range []int{3000, 1500, 700} {
			ref := newRefOffenders(offenderAdmitCap)
			blocks := make([]uint64, distinct)
			for i := range blocks {
				// Sparse blocks plus a dense run, so hash clusters form.
				if i%3 == 0 {
					blocks[i] = uint64(e)<<20 + uint64(i)
				} else {
					blocks[i] = uint64(rng.Int63n(1 << 36))
				}
			}
			for _, b := range blocks { // first touch, in order
				hit(ref, b)
			}
			for i := 0; i < 4*distinct; i++ { // skewed repeats across all
				j := rng.Intn(distinct)
				if rng.Intn(2) == 0 {
					j = rng.Intn(1 + distinct/16)
				}
				hit(ref, blocks[j])
			}
			// Late re-hits: the first and last admitted, the first dropped.
			for i := 0; i < 7; i++ {
				hit(ref, blocks[0])
				hit(ref, blocks[min(distinct, offenderAdmitCap)-1])
				if distinct > offenderAdmitCap {
					hit(ref, blocks[offenderAdmitCap])
				}
			}
			refs = append(refs, ref)
			if e < 2 {
				feed(r, uint64(e), uint64(e)+1)
			} else {
				trigger(r, health.KindSwapThrash, uint64(e))
			}
		}
		bundles := r.Finish()
		if len(bundles) != 1 {
			t.Fatalf("TopK %d: got %d bundles, want 1", topK, len(bundles))
		}
		eps := bundles[0].Epochs
		if len(eps) != len(refs) {
			t.Fatalf("TopK %d: bundle holds %d epochs, want %d", topK, len(eps), len(refs))
		}
		for e, ref := range refs {
			ep := eps[e]
			if want := len(ref.sum); ep.OffenderBlocks != want {
				t.Errorf("TopK %d epoch %d: OffenderBlocks = %d, want %d", topK, e, ep.OffenderBlocks, want)
			}
			if ep.OffendersDropped != ref.dropped {
				t.Errorf("TopK %d epoch %d: OffendersDropped = %d, want %d", topK, e, ep.OffendersDropped, ref.dropped)
			}
			if want := ref.top(topK); !reflect.DeepEqual(ep.Offenders, want) {
				t.Errorf("TopK %d epoch %d: Offenders differ from the reference\ngot  %v\nwant %v",
					topK, e, ep.Offenders, want)
			}
		}
		if refs[0].dropped == 0 || refs[2].dropped != 0 {
			t.Fatalf("TopK %d: stream shape wrong: dropped %d (saturated) / %d (under cap)",
				topK, refs[0].dropped, refs[2].dropped)
		}
	}
}

// TestSaturatedBumpDoesNotAllocate: charging demands to a full offender
// table — admitted blocks and refused ones alike — allocates nothing.
func TestSaturatedBumpDoesNotAllocate(t *testing.T) {
	r := newRec(t, flightrec.Config{})
	for b := uint64(0); b < 2*offenderAdmitCap; b++ {
		complete(r, &mem.Access{PAddr: b << 11}, stats.PathNMHit, 10)
	}
	admitted := &mem.Access{PAddr: 5 << 11}
	refused := &mem.Access{PAddr: (3 * offenderAdmitCap) << 11}
	avg := testing.AllocsPerRun(200, func() {
		complete(r, admitted, stats.PathNMHit, 10)
		complete(r, refused, stats.PathNMHit, 10)
	})
	if avg != 0 {
		t.Errorf("saturated offender table allocates %.1f objects/demand pair, want 0", avg)
	}
}

// BenchmarkRecorderBumpSaturated charges demands over 4096 distinct blocks
// to one epoch's offender table, so three of four blocks are refused: the
// per-demand cost of a table mcf fills every epoch.
func BenchmarkRecorderBumpSaturated(b *testing.B) {
	r := flightrec.New(flightrec.Config{}, "bench-fp", "bench/run")
	rng := rand.New(rand.NewSource(1))
	accs := make([]mem.Access, 4096)
	for i := range accs {
		accs[i].PAddr = uint64(rng.Int63n(1<<30)) << 11
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		complete(r, &accs[i&4095], stats.PathNMHit, 100)
	}
}
