//! Counters collected by the memory hierarchy, shaped after the metrics
//! the paper's figures report.

/// Per-cache counters (one per L1D; merged across SMs for reports).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Transactions presented to the cache (excluding retries of stalled
    /// accesses).
    pub accesses: u64,
    /// Tag-array hits.
    pub hits: u64,
    /// Misses that allocated a line (i.e. became L1D fills).
    pub misses_allocated: u64,
    /// Misses merged into an existing MSHR entry.
    pub mshr_merges: u64,
    /// Load misses sent around the cache (no allocation). Includes
    /// loads merged into an outstanding bypassed fetch.
    pub bypassed_loads: u64,
    /// Fetch packets actually emitted for bypassed loads (each may
    /// serve several merged `bypassed_loads`).
    pub bypass_fetches: u64,
    /// Stores sent around the cache (write-through path).
    pub bypassed_stores: u64,
    /// Valid lines evicted to make room for a fill.
    pub evictions: u64,
    /// Subset of `evictions` that were dirty (generated writebacks).
    pub dirty_evictions: u64,
    /// Accesses to lines never seen before by this cache (compulsory
    /// misses by definition; Figure 4 excludes them).
    pub compulsory_misses: u64,
    /// Cycles the input pipeline register held a stalled access, gating
    /// all younger accesses (§2).
    pub stall_cycles: u64,
    /// Accesses that found the input blocked and were rejected.
    pub rejected_submits: u64,
    /// Stalls (first attempt) caused by a full MSHR merge list.
    pub stall_merge_full: u64,
    /// Stalls caused by a full MSHR (no free entry).
    pub stall_mshr_full: u64,
    /// Stalls caused by a full miss queue.
    pub stall_miss_queue: u64,
    /// Stalls caused by every way in the set being reserved.
    pub stall_all_reserved: u64,
    /// Sum of load completion latencies (cycles from L1D acceptance to
    /// response readiness).
    pub load_latency_sum: u64,
    /// Loads contributing to `load_latency_sum`.
    pub load_count: u64,
}

impl CacheStats {
    /// Mean load latency in core cycles (acceptance to response).
    pub fn avg_load_latency(&self) -> f64 {
        if self.load_count == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.load_count as f64
        }
    }

    /// Misses of any flavour (allocated, merged, bypassed loads).
    pub fn misses(&self) -> u64 {
        self.misses_allocated + self.mshr_merges + self.bypassed_loads
    }

    /// "L1D traffic" in the paper's Figure 11a sense: accesses actually
    /// serviced by the cache (hits + misses handled through it),
    /// excluding bypassed accesses.
    pub fn cache_traffic(&self) -> u64 {
        self.accesses - self.bypassed_loads - self.bypassed_stores
    }

    /// Hit rate over non-bypassed accesses (Figure 12a's definition:
    /// bypassed accesses don't count toward the rate).
    pub fn hit_rate(&self) -> f64 {
        let den = self.cache_traffic();
        if den == 0 {
            0.0
        } else {
            self.hits as f64 / den as f64
        }
    }

    /// Miss rate over reuse accesses only (compulsory misses excluded),
    /// as plotted in Figure 4. Every non-hit access is a miss of some
    /// flavour, and every compulsory access is a non-hit, so the reuse
    /// miss rate is `(accesses − hits − compulsory) / (accesses − compulsory)`.
    pub fn reuse_miss_rate(&self) -> f64 {
        let reuse_accesses = self.accesses.saturating_sub(self.compulsory_misses);
        let reuse_misses =
            self.accesses.saturating_sub(self.hits).saturating_sub(self.compulsory_misses);
        if reuse_accesses == 0 {
            return 0.0;
        }
        reuse_misses as f64 / reuse_accesses as f64
    }

    /// Merge counters from another cache (aggregating SMs).
    pub fn merge(&mut self, o: &CacheStats) {
        self.accesses += o.accesses;
        self.hits += o.hits;
        self.misses_allocated += o.misses_allocated;
        self.mshr_merges += o.mshr_merges;
        self.bypassed_loads += o.bypassed_loads;
        self.bypass_fetches += o.bypass_fetches;
        self.bypassed_stores += o.bypassed_stores;
        self.evictions += o.evictions;
        self.dirty_evictions += o.dirty_evictions;
        self.compulsory_misses += o.compulsory_misses;
        self.stall_cycles += o.stall_cycles;
        self.rejected_submits += o.rejected_submits;
        self.stall_merge_full += o.stall_merge_full;
        self.stall_mshr_full += o.stall_mshr_full;
        self.stall_miss_queue += o.stall_miss_queue;
        self.stall_all_reserved += o.stall_all_reserved;
        self.load_latency_sum += o.load_latency_sum;
        self.load_count += o.load_count;
    }
}

/// Interconnect counters (Figure 13's metric).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IcntStats {
    /// Flits injected SM → partition.
    pub fwd_flits: u64,
    /// Flits injected partition → SM.
    pub ret_flits: u64,
    /// Packets that could not be accepted because the destination queue
    /// was full (backpressure events).
    pub rejects: u64,
}

impl IcntStats {
    /// Total flits both directions — the Figure 13 quantity.
    pub fn total_flits(&self) -> u64 {
        self.fwd_flits + self.ret_flits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_excludes_bypasses() {
        let s = CacheStats {
            accesses: 100,
            hits: 40,
            bypassed_loads: 25,
            bypassed_stores: 5,
            ..Default::default()
        };
        assert_eq!(s.cache_traffic(), 70);
        assert!((s.hit_rate() - 40.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_of_idle_cache_is_zero() {
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().reuse_miss_rate(), 0.0);
    }

    #[test]
    fn merge_sums_everything() {
        let mut a = CacheStats { accesses: 1, hits: 1, ..Default::default() };
        let b = CacheStats { accesses: 2, evictions: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.accesses, 3);
        assert_eq!(a.hits, 1);
        assert_eq!(a.evictions, 3);
    }

    #[test]
    fn icnt_totals() {
        let s = IcntStats { fwd_flits: 10, ret_flits: 5, rejects: 0 };
        assert_eq!(s.total_flits(), 15);
    }
}
