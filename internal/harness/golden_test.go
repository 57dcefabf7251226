package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/telemetry"
	"silcfm/internal/telemetry/exemplar"
)

// Digests of the observer-fed outputs of thrashCell with the tracer,
// profiler and shadow checker on. Any change to which events reach which
// observer, in what order or at what cycle, moves at least one of them.
const (
	thrashTraceSHA       = "65fd6f4c6f957f0351dbb76ea60d48b82bdde7a76b64ab52be42b9895829f230"
	thrashProfileSHA     = "6a0c8346e491a5d40c7ff6bcfb67d613d5adac02854bf8231dc53f089676efd2"
	thrashBundlesSHA     = "af49b98116e274711dc500f62a9b5c5e5c8dd2069173b597ae32007228ae9f0c"
	thrashExemplarsSHA   = "e209f4d4d56e3fca1f6755a6365139fd34a51036b3283509f2af7b8d04d969fa"
	thrashShadowEvents   = 184973
	thrashShadowAccesses = 38817
)

// thrashCell is ci.sh's thrash configuration: SILC-FM with an 8 MiB near
// memory and 32 MiB far memory under a milc footprint slice (÷16) at 100 k
// instructions per core, which swaps, locks and opens health incidents.
func thrashCell() Spec {
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	return Spec{
		Machine:      m,
		Workload:     "milc",
		InstrPerCore: 100_000,
		FootScaleNum: 1,
		FootScaleDen: 16,
	}
}

// TestObserverOutputsGolden pins every observer-fed output of the thrash
// cell byte for byte: the Perfetto trace, the profile JSONL, the
// postmortem bundles, the exemplar JSONL and the shadow checker's event
// count.
func TestObserverOutputsGolden(t *testing.T) {
	var trace, prof bytes.Buffer
	spec := thrashCell()
	spec.ShadowCheck = true
	spec.Telemetry = &telemetry.Config{TraceW: &trace, ProfileW: &prof}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShadowErr != nil {
		t.Fatal(res.ShadowErr)
	}
	bh := sha256.New()
	for i := range res.Bundles {
		if err := res.Bundles[i].Encode(bh); err != nil {
			t.Fatal(err)
		}
	}
	var ex bytes.Buffer
	if err := exemplar.WriteJSONL(&ex, res.Exemplars); err != nil {
		t.Fatal(err)
	}
	if len(res.Bundles) == 0 || ex.Len() == 0 || trace.Len() == 0 || prof.Len() == 0 {
		t.Fatalf("thrash cell left an output empty: %d bundles, %d B exemplars, %d B trace, %d B profile",
			len(res.Bundles), ex.Len(), trace.Len(), prof.Len())
	}
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	for _, c := range []struct{ what, got, want string }{
		{"trace JSON", sum(trace.Bytes()), thrashTraceSHA},
		{"profile JSONL", sum(prof.Bytes()), thrashProfileSHA},
		{"bundle JSON", hex.EncodeToString(bh.Sum(nil)), thrashBundlesSHA},
		{"exemplar JSONL", sum(ex.Bytes()), thrashExemplarsSHA},
	} {
		if c.got != c.want {
			t.Errorf("%s sha256 = %s, want %s", c.what, c.got, c.want)
		}
	}
	if got := res.Shadow.Events(); got != thrashShadowEvents {
		t.Errorf("shadow checker applied %d events, want %d", got, thrashShadowEvents)
	}
	if got := res.Shadow.Accesses(); got != thrashShadowAccesses {
		t.Errorf("shadow checker saw %d accesses, want %d", got, thrashShadowAccesses)
	}
}
