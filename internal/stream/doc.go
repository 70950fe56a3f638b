// Package stream segments images of effectively unbounded size in O(band)
// memory: the sixth engine path, pointing the distributed engine's banded
// decomposition at disk instead of sockets.
//
// The image streams in as horizontal bands whose boundaries are multiples
// of the effective split cap. Cap alignment means no split square crosses
// a band boundary, so splitting each band independently reproduces
// exactly the global split (the same argument distengine's workers rely
// on). Each band's squares join one global region adjacency graph —
// intra-band edges from the shared run-length scan (rag.AppendEdges),
// inter-band edges stitched against the retained previous-band boundary
// row — and the band's square list spills to a temp-file spool before its
// pixels are retired. Only the live frontier strip, the RAG (one vertex
// per square, not per pixel), and the spool survive a band.
//
// Ingest is a two-stage pipeline. A producer goroutine owns the reader,
// one reused split scratch and one pixel band; per band it reads the
// rows, splits them, and reduces the result to a band summary — the
// squares in raster order and the band's global-ID edges, stitch edges
// included. The calling goroutine takes the summaries in band order over
// one FIFO channel, adds the vertices in raster order (so graph slot
// order, and every merge decision with it, does not depend on
// scheduling), spills the squares, and adds the edges. Two summaries
// circulate between the stages, so splitting band k+1 overlaps the graph
// assembly of band k; at most one split scratch, one pixel band and two
// summaries (each O(band)) are in flight, and the O(band + squares) bound
// is unchanged. Observer events stay on the calling goroutine, and every
// exit path stops the producer before Segment returns.
//
// The merge stage then runs the exact sequential kernel — rag.DriveCtx
// driving Graph.MergeIteration rounds over the fully assembled graph — so
// iteration numbering, stall-forced resolutions, and Random-tie draws are
// identical to the in-memory engines, making the emitted labels
// byte-identical to theirs. A second pass replays the spool band by band,
// resolves each square's final region, and emits the output through the
// streaming writer, or row by row through the label encoder EncodeLabels
// shares.
package stream
