// Package mpengine runs the paper's message-passing (F77 + CMMD)
// split-and-merge program, internal/nodeprog, on the mpvm cluster.
//
// The image is block-mapped onto a P1×P2 node grid; each node holds an
// (N/P1)×(N/P2) tile, preserving adjacency between blocks, and trades its
// boundary strips with its four grid neighbours. Each node's channel is
// a simulated CM-5 node: collectives and messages charge its clock inside
// mpvm, and the work the program reports is converted to simulated time
// with the machine profile.
//
// Irregular communications (choice routing, adjacency handover) run under
// either the Linear Permutation or the Async scheme — the comparison at the
// heart of the paper's CM-5 message-passing results.
//
// Choices use the same hash-based tie semantics as the sequential kernel,
// so the engine produces segmentations identical to the sequential engine
// for every policy and seed.
package mpengine
