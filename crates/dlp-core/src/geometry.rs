//! Cache geometry and address → (set, tag) decomposition.
//!
//! The paper's baseline L1D (Table 1) is 16 KB organized as 32 sets ×
//! 4 ways × 128-byte lines with a *hash* set index; the L2 slices use a
//! *linear* index. Both index functions are implemented here so the same
//! geometry type serves every cache level in the workspace.

/// Set-index function applied to the line address.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IndexFunction {
    /// `set = line_addr % num_sets` — used by the L2 slices (Table 1).
    Linear,
    /// XOR-folded hash of the line address — used by the Fermi L1D
    /// (Table 1 lists "Hash index"). Folding the upper address bits into
    /// the index spreads power-of-two strides across sets, which is what
    /// the real hash achieves.
    Hash,
}

/// Static shape of one cache: line size, number of sets, associativity,
/// and the set-index function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Bytes per cache line. The paper's GPU uses 128-byte lines at both
    /// levels.
    pub line_bytes: u64,
    /// Number of sets.
    pub num_sets: usize,
    /// Ways per set.
    pub assoc: usize,
    /// How a line address is mapped to a set.
    pub index_fn: IndexFunction,
}

impl CacheGeometry {
    /// The paper's baseline L1D: 16 KB, 32 sets, 4 ways, 128 B lines,
    /// hash-indexed (Table 1).
    pub fn fermi_l1d_16k() -> Self {
        CacheGeometry { line_bytes: 128, num_sets: 32, assoc: 4, index_fn: IndexFunction::Hash }
    }

    /// The 32 KB comparison configuration (§5.3): associativity doubled
    /// to 8 ways, everything else unchanged.
    pub fn fermi_l1d_32k() -> Self {
        CacheGeometry { assoc: 8, ..Self::fermi_l1d_16k() }
    }

    /// The 64 KB configuration used by Figures 4 and 5: 16 ways.
    pub fn fermi_l1d_64k() -> Self {
        CacheGeometry { assoc: 16, ..Self::fermi_l1d_16k() }
    }

    /// One L2 slice: the 768 KB L2 is spread over 12 memory partitions,
    /// 64 KB per slice = 64 sets × 8 ways × 128 B, linearly indexed
    /// (Table 1).
    pub fn fermi_l2_slice() -> Self {
        CacheGeometry { line_bytes: 128, num_sets: 64, assoc: 8, index_fn: IndexFunction::Linear }
    }

    /// Total data capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.line_bytes * (self.num_sets as u64) * (self.assoc as u64)
    }

    /// Total number of lines (TDA entries).
    pub fn num_lines(&self) -> usize {
        self.num_sets * self.assoc
    }

    /// The line address (byte address with the intra-line offset stripped).
    #[inline]
    pub fn line_addr(&self, byte_addr: u64) -> u64 {
        byte_addr / self.line_bytes
    }

    /// Map a *line address* to its set.
    #[inline]
    pub fn set_of_line(&self, line_addr: u64) -> usize {
        debug_assert!(self.num_sets.is_power_of_two());
        let mask = (self.num_sets - 1) as u64;
        match self.index_fn {
            IndexFunction::Linear => (line_addr & mask) as usize,
            IndexFunction::Hash => {
                // Fold three higher windows of the line address onto the
                // index bits. This mirrors the XOR-based set hash used by
                // Fermi-class L1Ds to break up power-of-two strides.
                let bits = self.num_sets.trailing_zeros();
                let a = line_addr;
                let folded = a ^ (a >> bits) ^ (a >> (2 * bits)) ^ (a >> (3 * bits));
                (folded & mask) as usize
            }
        }
    }

    /// Map a *line address* to its tag (everything above the line offset;
    /// since the set index is hashed we keep the full line address as the
    /// tag, which is what a hash-indexed hardware tag array must do too).
    #[inline]
    pub fn tag_of_line(&self, line_addr: u64) -> u64 {
        line_addr
    }

    /// Decompose a byte address into `(set, tag)`.
    #[inline]
    pub fn locate(&self, byte_addr: u64) -> (usize, u64) {
        let line = self.line_addr(byte_addr);
        (self.set_of_line(line), self.tag_of_line(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_capacity_matches_table1() {
        let g = CacheGeometry::fermi_l1d_16k();
        assert_eq!(g.capacity_bytes(), 16 * 1024);
        assert_eq!(g.num_lines(), 128);
    }

    #[test]
    fn doubled_assoc_doubles_capacity() {
        assert_eq!(CacheGeometry::fermi_l1d_32k().capacity_bytes(), 32 * 1024);
        assert_eq!(CacheGeometry::fermi_l1d_64k().capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn l2_slice_is_64k() {
        assert_eq!(CacheGeometry::fermi_l2_slice().capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn linear_index_wraps() {
        let g = CacheGeometry { index_fn: IndexFunction::Linear, ..CacheGeometry::fermi_l1d_16k() };
        assert_eq!(g.set_of_line(0), 0);
        assert_eq!(g.set_of_line(31), 31);
        assert_eq!(g.set_of_line(32), 0);
        assert_eq!(g.set_of_line(33), 1);
    }

    #[test]
    fn hash_index_within_range_and_deterministic() {
        let g = CacheGeometry::fermi_l1d_16k();
        for line in 0u64..10_000 {
            let s = g.set_of_line(line);
            assert!(s < g.num_sets);
            assert_eq!(s, g.set_of_line(line), "set mapping must be deterministic");
        }
    }

    #[test]
    fn hash_index_spreads_power_of_two_strides() {
        // A stride equal to num_sets lines maps everything to one set
        // under the linear index; the hash index must spread it.
        let g = CacheGeometry::fermi_l1d_16k();
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..64 {
            seen.insert(g.set_of_line(i * g.num_sets as u64));
        }
        assert!(seen.len() > g.num_sets / 2, "hash index spread only {} sets", seen.len());
    }

    #[test]
    fn locate_strips_line_offset() {
        let g = CacheGeometry::fermi_l1d_16k();
        let (s0, t0) = g.locate(0x1000);
        let (s1, t1) = g.locate(0x1000 + 127);
        assert_eq!((s0, t0), (s1, t1));
        let (_, t2) = g.locate(0x1000 + 128);
        assert_ne!(t0, t2);
    }
}
