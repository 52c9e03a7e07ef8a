//! `trace-writemix`: a seeded, store-heavy synthetic kernel, written as
//! a binary `DLPT` trace and replayed through trace ingestion.
//!
//! Shape, per CTA of [`WARPS_PER_CTA`] warps:
//! * a reused tile of [`TILE_BYTES`] (3× the 16 KB L1D), read at random
//!   lines by every warp, so protecting lines from eviction matters;
//! * a read-modify-write slice of a [`RMW_BYTES`] region (larger than
//!   the 768 KB aggregate L2), so dirty lines are written back through
//!   L2 to DRAM;
//! * a write-only output stream, whose store misses bypass the L1D.
//!
//! Each iteration issues two tile loads, one RMW load and its store,
//! and one output store: stores are 2 of every 5 memory ops. Every
//! memory op is one fully coalesced 128-byte line, which keeps the
//! trace file small.

use gpu_sim::isa::TraceOp;
use gpu_sim::{GridDesc, Kernel, OpStream, VecStream};
use std::io;
use std::path::Path;

/// CTAs in the grid (four per SM of the 16-SM platform).
pub const CTAS: usize = 64;
/// Warps per CTA.
pub const WARPS_PER_CTA: usize = 8;
/// Loop iterations per warp at full size.
pub const ITERS: usize = 48;
/// Per-CTA reused tile.
pub const TILE_BYTES: u64 = 48 * 1024;
/// Read-modify-write region shared by the grid.
pub const RMW_BYTES: u64 = 2 * 1024 * 1024;

// The shape the workload promises: a tile of three 16 KB L1Ds and an
// RMW region beyond the 768 KB aggregate L2.
const _: () = assert!(TILE_BYTES == 3 * 16 * 1024 && RMW_BYTES > 768 * 1024);

const LINE: u64 = 128;
const TILE_BASE: u64 = 0x1000_0000;
const RMW_BASE: u64 = 0x4000_0000;
const OUT_BASE: u64 = 0x8000_0000;

const PC_TILE_A: u32 = 0x10;
const PC_TILE_B: u32 = 0x18;
const PC_RMW_LD: u32 = 0x20;
const PC_RMW_ST: u32 = 0x28;
const PC_OUT_ST: u32 = 0x30;
const PC_ALU: u32 = 0x40;

/// SplitMix64: the seeded generator behind every random choice.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The synthetic kernel. Every warp's stream is a pure function of
/// `(seed, cta, warp)`.
pub struct WriteMix {
    seed: u64,
    iters: usize,
}

impl WriteMix {
    /// The full-size kernel for `seed`.
    pub fn new(seed: u64) -> Self {
        WriteMix { seed, iters: ITERS }
    }

    /// A shorter kernel with `iters` loop iterations per warp (tests).
    pub fn with_iters(seed: u64, iters: usize) -> Self {
        WriteMix { seed, iters }
    }

    fn ops(&self, cta: usize, warp: usize) -> Vec<TraceOp> {
        let mut state = splitmix64(self.seed ^ ((cta as u64) << 32) ^ warp as u64);
        let mut next = || {
            state = splitmix64(state);
            state
        };
        let line_addrs =
            |line_base: u64| -> Vec<u64> { (0..32).map(|l| line_base + 4 * l).collect() };
        let tile_lines = TILE_BYTES / LINE;
        let tile_base = TILE_BASE + cta as u64 * TILE_BYTES;
        let slice_lines = RMW_BYTES / LINE / CTAS as u64;
        let rmw_base = RMW_BASE + cta as u64 * slice_lines * LINE;
        let rmw_start = next() % slice_lines;
        let out_base = OUT_BASE + ((cta * WARPS_PER_CTA + warp) * self.iters) as u64 * LINE;

        let mut ops = Vec::with_capacity(self.iters * 9);
        for i in 0..self.iters {
            let a = tile_base + (next() % tile_lines) * LINE;
            let b = tile_base + (next() % tile_lines) * LINE;
            let rmw_line = (rmw_start + (i * WARPS_PER_CTA + warp) as u64) % slice_lines;
            let rmw = rmw_base + rmw_line * LINE;
            ops.push(TraceOp::load(PC_TILE_A, 1, line_addrs(a)));
            ops.push(TraceOp::load(PC_TILE_B, 2, line_addrs(b)));
            ops.push(
                TraceOp::alu(PC_ALU, 4 + (next() % 8) as u32)
                    .with_srcs([1, 2])
                    .with_dst(3),
            );
            ops.push(TraceOp::load(PC_RMW_LD, 4, line_addrs(rmw)));
            ops.push(TraceOp::alu(PC_ALU + 8, 4).with_srcs([3, 4]).with_dst(5));
            ops.push(TraceOp::store(PC_RMW_ST, line_addrs(rmw)).with_srcs([5, 5]));
            ops.push(
                TraceOp::alu(PC_ALU + 16, 2 + (next() % 4) as u32)
                    .with_srcs([5, 3])
                    .with_dst(6),
            );
            ops.push(
                TraceOp::store(PC_OUT_ST, line_addrs(out_base + i as u64 * LINE)).with_srcs([6, 6]),
            );
        }
        ops
    }
}

impl Kernel for WriteMix {
    fn name(&self) -> &str {
        "WRITEMIX"
    }

    fn grid(&self) -> GridDesc {
        GridDesc {
            num_ctas: CTAS,
            warps_per_cta: WARPS_PER_CTA,
        }
    }

    fn warp_stream(&self, cta: usize, warp: usize) -> Box<dyn OpStream> {
        Box::new(VecStream::new(self.ops(cta, warp)))
    }
}

/// Write `kernel` as a binary `DLPT` trace at `path`.
pub fn write_trace(path: &Path, kernel: &WriteMix) -> io::Result<()> {
    gpu_workloads::trace::write_binary_trace(path, kernel)
}
