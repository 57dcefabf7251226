package main

import (
	"bytes"
	"io"
	"testing"

	"silcfm/internal/config"
	"silcfm/internal/flightrec"
	"silcfm/internal/harness"
)

// thrashBundle encodes the first bundle of the thrash cell the CI
// postmortem stage runs: SILC-FM, 8 MiB NM / 32 MiB FM, milc footprint
// ÷16, 100 k instructions per core.
func thrashBundle(f *testing.F) []byte {
	f.Helper()
	m := config.Default()
	m.Scheme = config.SchemeSILCFM
	m.NM = config.HBM(8 << 20)
	m.FM = config.DDR3(32 << 20)
	res, err := harness.Run(harness.Spec{
		Machine: m, Workload: "milc", InstrPerCore: 100_000, FootScaleNum: 1, FootScaleDen: 16,
	})
	if err != nil {
		f.Fatal(err)
	}
	if len(res.Bundles) == 0 {
		f.Fatal("thrash cell captured no bundle")
	}
	var buf bytes.Buffer
	if err := res.Bundles[0].Encode(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRender decodes arbitrary bytes as a bundle and renders every bundle
// Decode accepts: the renderer must never panic on one.
func FuzzRender(f *testing.F) {
	f.Add(thrashBundle(f))
	// A trigger index before the window once crashed the renderer.
	f.Add([]byte(`{"schema":"` + flightrec.BundleSchema + `","pre_epochs":-1,"epochs":[{"sample":{}}]}`))
	f.Add([]byte(`{"schema":"` + flightrec.BundleSchema + `","pre_epochs":2,"epochs":[{"sample":{"access_rate":-1}},{"sample":{"access_rate":0.5}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := flightrec.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		render(io.Discard, b, "fuzz.json", 12)
	})
}
