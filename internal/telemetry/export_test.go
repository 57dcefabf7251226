package telemetry

// ProfileMaxEntries exports the profiler's per-map bound to the external
// tests.
const ProfileMaxEntries = profileMaxEntries
