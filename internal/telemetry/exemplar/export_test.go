package exemplar

// K exports the per-path reservoir depth to the external tests.
const K = k
