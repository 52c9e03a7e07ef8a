//! The `trace-writemix` generator: deterministic in its seed, accepted
//! by trace ingestion, and shaped as its documentation says.

use gpu_sim::isa::OpKind;
use gpu_sim::Kernel;
use gpu_workloads::TraceKernel;
use perfbench::writemix::{write_trace, WriteMix, CTAS, WARPS_PER_CTA};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("writemix");
    std::fs::create_dir_all(&dir).expect("test scratch directory");
    dir.join(name)
}

fn trace_bytes(seed: u64, name: &str) -> Vec<u8> {
    let path = scratch(name);
    write_trace(&path, &WriteMix::with_iters(seed, 3)).expect("write trace");
    std::fs::read(&path).expect("read trace back")
}

#[test]
fn same_seed_gives_identical_bytes_and_another_seed_does_not() {
    let a = trace_bytes(11, "a.dlpt");
    let b = trace_bytes(11, "b.dlpt");
    let c = trace_bytes(12, "c.dlpt");
    assert_eq!(a, b);
    assert_ne!(a, c);
    assert_eq!(a.len(), c.len(), "the seed moves addresses, not the shape");
}

#[test]
fn trace_kernel_open_accepts_it_and_replays_the_generated_ops() {
    let path = scratch("open.dlpt");
    let kernel = WriteMix::with_iters(5, 3);
    write_trace(&path, &kernel).expect("write trace");
    let opened = TraceKernel::open(&path).expect("TraceKernel::open accepts the trace");
    assert_eq!(opened.grid(), kernel.grid());
    assert_eq!(opened.recorded_warps(), CTAS * WARPS_PER_CTA);
    for (cta, warp) in [(0, 0), (CTAS - 1, WARPS_PER_CTA - 1), (17, 3)] {
        assert_eq!(
            opened.warp_ops(cta, warp),
            kernel.warp_ops(cta, warp),
            "warp {cta}/{warp}"
        );
    }
}

#[test]
fn stores_are_at_least_a_third_of_memory_ops() {
    // The tile and RMW sizes are checked at compile time beside their
    // definitions; stores must be at least a third of memory ops.
    let kernel = WriteMix::new(1);
    let (mut mem, mut stores) = (0u64, 0u64);
    for cta in 0..CTAS {
        for warp in 0..WARPS_PER_CTA {
            for op in kernel.warp_ops(cta, warp) {
                if let OpKind::Mem { is_write, .. } = op.kind {
                    mem += 1;
                    stores += u64::from(is_write);
                }
            }
        }
    }
    assert!(3 * stores >= mem, "{stores} stores of {mem} memory ops");
}
