// Package simdvm is a data-parallel virtual machine in the style of the
// Connection Machine's CM Fortran execution model. It provides 2-D and 1-D
// parallel arrays (Grid/BoolGrid, Vec/BoolVec) with elementwise arithmetic,
// end-off grid shifts (NEWS communication), general router gather/scatter
// with combining, reductions, scans, segmented scans, sorting, and stream
// compaction — the primitive vocabulary the paper's data-parallel
// implementation is written in.
//
// Two things happen on every operation:
//
//  1. The operation really executes, tiled across goroutines (this host has
//     no SIMD array hardware, so virtual processors are emulated by manual
//     loop tiling — see Machine.parFor).
//  2. The operation is charged to a simulated clock under a machine.Profile,
//     so an algorithm built on the VM yields both a real wall-clock time and
//     a simulated Connection Machine time.
//
// A 1-D array is dense, one stored element per position, unless it is
// made on a sparse Layout, which stores only a chosen set of live
// positions (slots). Ops on a layout execute over the stored slots but
// are charged over all of the domain's virtual processors, exactly as the
// dense op, so simulated time never depends on the storage choice.
// Unstored positions are undefined and never read: At, a gather or a
// scatter through one panics. Count and Any reduce the stored slots only
// (other reductions, scans, sorts and packs take dense arrays), so a
// Count on a layout equals the dense Count whenever the mask is false off
// the slots,
// which holds for the masks dpengine reduces: off the square origins the
// dense program holds no choice and a representative pointing at itself.
//
// Machines and their arrays are not safe for concurrent use: the front-end
// model is a single control thread issuing parallel operations, exactly as
// on the CM.
package simdvm
