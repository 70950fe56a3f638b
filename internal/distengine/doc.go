// Package distengine runs the paper's region-growing algorithm as a real
// network-distributed system: N worker processes each own a horizontal
// band of the image, split it locally, exchange boundary RAG rows and
// merge decisions over TCP through a coordinator hub, and stream stage
// events back. Each worker runs internal/nodeprog, the message-passing
// program internal/mpengine runs on 32 simulated nodes, over its link to
// the coordinator.
//
// The wire protocol is a small set of length-prefixed binary frames
// (stdlib only): a job frame carrying geometry, config, and the worker's
// band of pixels; lockstep collective request/response pairs mirroring
// the collectives the simulated machine models (all-reduce, all-gather,
// irregular exchange); fire-and-forget stage events from rank 0; a
// terminal result frame with the band's final labels; and an abort frame
// the coordinator injects on context cancellation, which every worker
// observes at its next collective — within one split/merge iteration.
//
// The coordinator side (Engine) implements core.ContextEngine, so it
// plugs into the regiongrow.Segmenter facade as the Distributed kind; the
// worker side (ServeWorker) is wrapped by cmd/regiongrow-worker. Labels
// are byte-identical to the sequential engine for every Config: band
// boundaries are aligned to the effective split cap (no split square
// crosses one) and every merge decision rule is shared through
// internal/rag, the same construction the property-tested shmengine uses.
package distengine
