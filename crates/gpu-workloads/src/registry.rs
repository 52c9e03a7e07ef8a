//! Table 2: the benchmark inventory, and constructors for each model.

use gpu_sim::isa::OpKind;
use gpu_sim::{coalescer, Kernel};

/// The paper's application classification (§3.2): Cache Sufficient
/// applications have a memory-access ratio below 1 %, Cache Insufficient
/// ones above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppClass {
    /// Cache Sufficient — performance insensitive to the L1D.
    CS,
    /// Cache Insufficient — L1D behaviour dominates performance.
    CI,
}

/// One row of Table 2.
#[derive(Clone, Copy, Debug)]
pub struct BenchSpec {
    /// Abbreviation used throughout the figures.
    pub abbr: &'static str,
    /// Full application name.
    pub name: &'static str,
    /// Source suite.
    pub suite: &'static str,
    /// CS/CI classification.
    pub class: AppClass,
    /// The paper's input description.
    pub input: &'static str,
}

/// Model size: `Tiny` for unit tests (sub-second), `Full` for the
/// experiment harness (matches the figures in EXPERIMENTS.md).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// A few CTAs — enough to exercise every code path.
    Tiny,
    /// The evaluation size used to regenerate the paper's figures.
    Full,
    /// `Full` dimensions with per-warp trace lengths and the streamed
    /// footprints multiplied by the factor — the ISSUE 10 scale axis
    /// (`DLP_SCALE=10|100|1000`). The grid stays at `Full` size so SM
    /// occupancy and resident-warp contention remain comparable along
    /// the axis; what grows is the work (and memory touched) per warp.
    /// `Scaled(1)` is trace-identical to `Full`.
    Scaled(u32),
}

impl Scale {
    /// The trace-length multiplier: 1 for `Tiny`/`Full`, the factor
    /// for `Scaled` (clamped to at least 1).
    pub fn factor(&self) -> u64 {
        match self {
            Scale::Scaled(f) => u64::from(*f).max(1),
            _ => 1,
        }
    }
}

/// All 18 applications, in Table 2 order.
pub fn registry() -> Vec<BenchSpec> {
    use AppClass::*;
    vec![
        BenchSpec { abbr: "HG", name: "Histogram", suite: "CUDA Samples", class: CS, input: "67108864" },
        BenchSpec { abbr: "HS", name: "Hotspot", suite: "Rodinia", class: CS, input: "512x512" },
        BenchSpec { abbr: "STEN", name: "3-D Stencil Operation", suite: "Parboil", class: CS, input: "512x512x64" },
        BenchSpec { abbr: "SC", name: "Separable Convolution", suite: "Rodinia", class: CS, input: "2048x512" },
        BenchSpec { abbr: "BP", name: "Back Propagation", suite: "Rodinia", class: CS, input: "65536" },
        BenchSpec { abbr: "SRAD", name: "Speckle Reducing Anisotropic Diffusion", suite: "Rodinia", class: CS, input: "512x512" },
        BenchSpec { abbr: "NW", name: "Needleman-Wunsch", suite: "Rodinia", class: CS, input: "1024x1024" },
        BenchSpec { abbr: "GEMM", name: "Matrix Multiply-add", suite: "Polybench", class: CS, input: "512X512X512" },
        BenchSpec { abbr: "BT", name: "B+tree", suite: "Rodinia", class: CS, input: "6000x3000" },
        BenchSpec { abbr: "CFD", name: "Computational Fluid Dynamics", suite: "Rodinia", class: CI, input: "97046" },
        BenchSpec { abbr: "PVR", name: "Page View Rank", suite: "Mars", class: CI, input: "250000" },
        BenchSpec { abbr: "SS", name: "Similarity Score", suite: "Mars", class: CI, input: "512x128" },
        BenchSpec { abbr: "BFS", name: "Breadth-First Search", suite: "Rodinia", class: CI, input: "65536" },
        BenchSpec { abbr: "MM", name: "Matrix Multiplication", suite: "Mars", class: CI, input: "256x256" },
        BenchSpec { abbr: "SRK", name: "Symmetric Rank-k", suite: "Polybench", class: CI, input: "256x256" },
        BenchSpec { abbr: "SR2K", name: "Symmetric Rank-2k", suite: "Polybench", class: CI, input: "256x256" },
        BenchSpec { abbr: "KM", name: "K-means", suite: "Rodinia", class: CI, input: "204800" },
        BenchSpec { abbr: "STR", name: "String Match", suite: "Mars", class: CI, input: "354984" },
    ]
}

/// Look up a spec by abbreviation.
pub fn spec(abbr: &str) -> BenchSpec {
    registry()
        .into_iter()
        .find(|s| s.abbr == abbr)
        .unwrap_or_else(|| panic!("unknown benchmark {abbr:?}"))
}

/// Instantiate a benchmark model by abbreviation.
pub fn build(abbr: &str, scale: Scale) -> Box<dyn Kernel> {
    use crate::apps::*;
    match abbr {
        "HG" => Box::new(hg::Hg::new(scale)),
        "HS" => Box::new(hs::Hs::new(scale)),
        "STEN" => Box::new(sten::Sten::new(scale)),
        "SC" => Box::new(sc::Sc::new(scale)),
        "BP" => Box::new(bp::Bp::new(scale)),
        "SRAD" => Box::new(srad::Srad::new(scale)),
        "NW" => Box::new(nw::Nw::new(scale)),
        "GEMM" => Box::new(gemm::Gemm::new(scale)),
        "BT" => Box::new(bt::Bt::new(scale)),
        "CFD" => Box::new(cfd::Cfd::new(scale)),
        "PVR" => Box::new(pvr::Pvr::new(scale)),
        "SS" => Box::new(ss::Ss::new(scale)),
        "BFS" => Box::new(bfs::Bfs::new(scale)),
        "MM" => Box::new(mm::Mm::new(scale)),
        "SRK" => Box::new(srk::Srk::new(scale)),
        "SR2K" => Box::new(sr2k::Sr2k::new(scale)),
        "KM" => Box::new(km::Km::new(scale)),
        "STR" => Box::new(str_match::StrMatch::new(scale)),
        other => panic!("unknown benchmark {other:?}"),
    }
}

/// Statically replay every warp trace of a kernel and count coalesced
/// memory transactions and thread instructions — the §3.2 ratio without
/// running the timing simulator. Used by Figure 6 and by the per-app
/// classification tests.
pub fn static_mem_profile(k: &dyn Kernel) -> (u64, u64) {
    let grid = k.grid();
    let mut txns = 0u64;
    let mut thread_insns = 0u64;
    for cta in 0..grid.num_ctas {
        for warp in 0..grid.warps_per_cta {
            for op in k.warp_ops(cta, warp) {
                thread_insns += op.active_lanes() as u64;
                if let OpKind::Mem { addrs, .. } = &op.kind {
                    txns += coalescer::coalesce(addrs, 128).len() as u64;
                }
            }
        }
    }
    (txns, thread_insns)
}

/// The §3.2 memory-access ratio computed statically.
pub fn static_mem_ratio(k: &dyn Kernel) -> f64 {
    let (txns, insns) = static_mem_profile(k);
    if insns == 0 {
        0.0
    } else {
        txns as f64 / insns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_table2() {
        let r = registry();
        assert_eq!(r.len(), 18);
        assert_eq!(r.iter().filter(|s| s.class == AppClass::CS).count(), 9);
        assert_eq!(r.iter().filter(|s| s.class == AppClass::CI).count(), 9);
        let abbrs: std::collections::HashSet<_> = r.iter().map(|s| s.abbr).collect();
        assert_eq!(abbrs.len(), 18, "abbreviations are unique");
    }

    #[test]
    fn every_spec_builds_at_tiny_scale() {
        for s in registry() {
            let k = build(s.abbr, Scale::Tiny);
            let grid = k.grid();
            assert!(grid.num_ctas > 0 && grid.warps_per_cta > 0, "{}", s.abbr);
            assert!(grid.warps_per_cta <= 48, "{} CTA too large for an SM", s.abbr);
            let ops = k.warp_ops(0, 0);
            assert!(!ops.is_empty(), "{} warp 0 has no ops", s.abbr);
        }
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_abbreviation_panics() {
        build("NOPE", Scale::Tiny);
    }

    #[test]
    fn traces_are_deterministic() {
        for s in registry() {
            let a = build(s.abbr, Scale::Tiny).warp_ops(0, 0);
            let b = build(s.abbr, Scale::Tiny).warp_ops(0, 0);
            assert_eq!(a, b, "{} trace must be reproducible", s.abbr);
        }
    }

    #[test]
    fn classification_matches_static_ratio() {
        // The 1% memory-access-ratio threshold of §3.2 must separate the
        // models exactly as Table 2 classifies them.
        for s in registry() {
            let k = build(s.abbr, Scale::Tiny);
            let ratio = static_mem_ratio(k.as_ref());
            match s.class {
                AppClass::CS => {
                    assert!(ratio < 0.01, "{} ratio {ratio:.4} should be CS (<1%)", s.abbr)
                }
                AppClass::CI => {
                    assert!(ratio >= 0.01, "{} ratio {ratio:.4} should be CI (>=1%)", s.abbr)
                }
            }
        }
    }
}
