//! Reuse-distance distributions: the paper's four-bucket histograms.

/// The paper's RD ranges (Figures 3 and 7).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RdBucket {
    /// RD 1–4: captured by the baseline's 4 ways.
    R1to4,
    /// RD 5–8: captured by the 8-way (32 KB) configuration.
    R5to8,
    /// RD 9–64: beyond realistic associativity, within protection reach.
    R9to64,
    /// RD > 64: effectively streaming at L1 scale.
    ROver64,
}

impl RdBucket {
    /// Bucket an RD value.
    pub fn of(rd: u64) -> Self {
        match rd {
            0..=4 => RdBucket::R1to4,
            5..=8 => RdBucket::R5to8,
            9..=64 => RdBucket::R9to64,
            _ => RdBucket::ROver64,
        }
    }

    /// All buckets, plot order.
    pub const ALL: [RdBucket; 4] =
        [RdBucket::R1to4, RdBucket::R5to8, RdBucket::R9to64, RdBucket::ROver64];

    /// Axis label as the paper prints it.
    pub fn label(self) -> &'static str {
        match self {
            RdBucket::R1to4 => "RD 1~4",
            RdBucket::R5to8 => "RD 5~8",
            RdBucket::R9to64 => "RD 9~64",
            RdBucket::ROver64 => "RD >64",
        }
    }
}

/// A four-bucket RD histogram.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RddHistogram {
    counts: [u64; 4],
    /// First-touch accesses (no RD — compulsory).
    pub compulsory: u64,
}

impl RddHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observed RD.
    pub fn record(&mut self, rd: u64) {
        self.counts[Self::slot(RdBucket::of(rd))] += 1;
    }

    /// Record a first touch.
    pub fn record_compulsory(&mut self) {
        self.compulsory += 1;
    }

    fn slot(b: RdBucket) -> usize {
        match b {
            RdBucket::R1to4 => 0,
            RdBucket::R5to8 => 1,
            RdBucket::R9to64 => 2,
            RdBucket::ROver64 => 3,
        }
    }

    /// Raw count in a bucket.
    pub fn count(&self, b: RdBucket) -> u64 {
        self.counts[Self::slot(b)]
    }

    /// Raw bucket counts in [`RdBucket::ALL`] order — for codecs that
    /// serialize histograms field-by-field.
    pub fn counts(&self) -> [u64; 4] {
        self.counts
    }

    /// Rebuild a histogram from previously serialized parts
    /// (the inverse of [`RddHistogram::counts`] + `compulsory`).
    pub fn from_parts(counts: [u64; 4], compulsory: u64) -> Self {
        RddHistogram { counts, compulsory }
    }

    /// Total RDs recorded (re-references only).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Bucket shares summing to 1 (Figure 3's stacked bars). All zeros
    /// if nothing was recorded.
    pub fn shares(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        self.counts.map(|c| c as f64 / t as f64)
    }

    /// Fraction of RDs that exceed `assoc` — an upper bound on how much
    /// reuse an `assoc`-way LRU set can possibly miss.
    pub fn frac_beyond(&self, assoc: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        let beyond: u64 = RdBucket::ALL
            .iter()
            .filter(|&&b| match b {
                RdBucket::R1to4 => assoc < 1,
                RdBucket::R5to8 => assoc < 5,
                RdBucket::R9to64 => assoc < 9,
                RdBucket::ROver64 => assoc < 65,
            })
            .map(|&b| self.count(b))
            .sum();
        beyond as f64 / t as f64
    }

    /// Accumulate another histogram.
    pub fn merge(&mut self, o: &RddHistogram) {
        for i in 0..4 {
            self.counts[i] += o.counts[i];
        }
        self.compulsory += o.compulsory;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_match_the_paper() {
        assert_eq!(RdBucket::of(1), RdBucket::R1to4);
        assert_eq!(RdBucket::of(4), RdBucket::R1to4);
        assert_eq!(RdBucket::of(5), RdBucket::R5to8);
        assert_eq!(RdBucket::of(8), RdBucket::R5to8);
        assert_eq!(RdBucket::of(9), RdBucket::R9to64);
        assert_eq!(RdBucket::of(64), RdBucket::R9to64);
        assert_eq!(RdBucket::of(65), RdBucket::ROver64);
        assert_eq!(RdBucket::of(1_000_000), RdBucket::ROver64);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut h = RddHistogram::new();
        for rd in [1, 2, 6, 10, 100, 7, 3] {
            h.record(rd);
        }
        let s: f64 = h.shares().iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = RddHistogram::new();
        assert_eq!(h.shares(), [0.0; 4]);
        assert_eq!(h.frac_beyond(4), 0.0);
    }

    #[test]
    fn frac_beyond_counts_upper_buckets() {
        let mut h = RddHistogram::new();
        h.record(2); // within 4 ways
        h.record(6); // beyond 4, within 8
        h.record(20); // beyond 8
        h.record(100); // beyond 64
        assert!((h.frac_beyond(4) - 0.75).abs() < 1e-12);
        assert!((h.frac_beyond(8) - 0.5).abs() < 1e-12);
        assert!((h.frac_beyond(64) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = RddHistogram::new();
        a.record(1);
        a.record_compulsory();
        let mut b = RddHistogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.total(), 2);
        assert_eq!(a.compulsory, 1);
    }
}
