//! Scheme-internal statistics exposed for the experiment harness.

/// Counters a [`crate::ReplacementPolicy`] accumulates about its own
/// decisions. Cache-level counters (hits, misses, traffic, evictions)
/// live with the cache controller in `gpu-mem`; these are the knobs that
/// are only visible inside the scheme.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Set queries observed (each new access to the cache).
    pub queries: u64,
    /// Misses the scheme chose to bypass because every non-reserved way
    /// in the set was protected (PL > 0).
    pub protected_bypasses: u64,
    /// Hits recorded in the victim tag array.
    pub vta_hits: u64,
    /// Lines inserted into the victim tag array (TDA evictions seen).
    pub vta_insertions: u64,
    /// Victim tags restored after a bypassed miss (the on-miss VTA probe
    /// consumed the entry but the line never entered the TDA).
    pub vta_reinserted: u64,
    /// Completed sampling periods (PD recomputations considered).
    pub samples: u64,
    /// Samples that took the PD-increase path of Figure 9.
    pub pd_increases: u64,
    /// Samples that took the PD-decrease path of Figure 9.
    pub pd_decreases: u64,
    /// Sum over samples of the mean PD after recomputation, scaled by
    /// 1000 (fixed-point so the struct stays integer-only and exactly
    /// serializable). `mean_pd_milli / samples` is the average PD level.
    pub mean_pd_milli_sum: u64,
}

impl PolicyStats {
    /// Average protection distance over all completed samples, or 0.0 if
    /// the scheme never sampled.
    pub fn avg_pd(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.mean_pd_milli_sum as f64 / 1000.0 / self.samples as f64
        }
    }

    /// Merge counters from another instance (used when aggregating the
    /// 16 per-SM policies of one simulation into a single report).
    pub fn merge(&mut self, other: &PolicyStats) {
        self.queries += other.queries;
        self.protected_bypasses += other.protected_bypasses;
        self.vta_hits += other.vta_hits;
        self.vta_insertions += other.vta_insertions;
        self.vta_reinserted += other.vta_reinserted;
        self.samples += other.samples;
        self.pd_increases += other.pd_increases;
        self.pd_decreases += other.pd_decreases;
        self.mean_pd_milli_sum += other.mean_pd_milli_sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_pd_zero_when_never_sampled() {
        assert_eq!(PolicyStats::default().avg_pd(), 0.0);
    }

    #[test]
    fn avg_pd_fixed_point() {
        let s = PolicyStats { samples: 2, mean_pd_milli_sum: 9000, ..Default::default() };
        assert!((s.avg_pd() - 4.5).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = PolicyStats { queries: 1, vta_hits: 2, ..Default::default() };
        let b = PolicyStats { queries: 10, vta_hits: 20, samples: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.queries, 11);
        assert_eq!(a.vta_hits, 22);
        assert_eq!(a.samples, 1);
    }
}
