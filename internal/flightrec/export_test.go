package flightrec

// The recorder's bounds, exported to the external tests.
const (
	HistoryEpochs    = historyEpochs
	TailEpochs       = tailEpochs
	EventRing        = eventRing
	MaxBundleEvents  = maxBundleEvents
	TopK             = topK
	MaxBundles       = maxBundles
	MaxCaptureEpochs = maxCaptureEpochs
	OffenderAdmitCap = offenderTableCap
)
