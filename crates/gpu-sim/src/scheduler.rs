//! Greedy-then-oldest (GTO) warp scheduling — Table 1's policy.
//!
//! A GTO scheduler keeps issuing from the warp it issued last as long as
//! that warp stays ready; when it stalls, the scheduler falls back to
//! the *oldest* ready warp (by launch age). GTO concentrates one warp's
//! locality in the L1D before moving on, which is why GPGPU-Sim uses it
//! as the cache-friendly default.

/// One warp scheduler. The SM instantiates two (Table 1), splitting its
/// warp slots between them.
pub struct GtoScheduler {
    /// Warp slots this scheduler owns, maintained in age order.
    warps: Vec<(u64, usize)>,
    /// The slot issued from last cycle, if any.
    greedy: Option<usize>,
}

impl Default for GtoScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl GtoScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        GtoScheduler { warps: Vec::new(), greedy: None }
    }

    /// Register a newly launched warp with its age stamp.
    pub fn add(&mut self, slot: usize, age: u64) {
        let pos = self.warps.partition_point(|&(a, _)| a <= age);
        self.warps.insert(pos, (age, slot));
    }

    /// Remove a finished warp.
    pub fn remove(&mut self, slot: usize) {
        self.warps.retain(|&(_, s)| s != slot);
        if self.greedy == Some(slot) {
            self.greedy = None;
        }
    }

    /// Number of warps currently owned.
    pub fn len(&self) -> usize {
        self.warps.len()
    }

    /// No warps assigned?
    pub fn is_empty(&self) -> bool {
        self.warps.is_empty()
    }

    /// The slot the greedy pointer currently prefers (diagnostics; the
    /// unit tests use it to verify that no-issue cycles leave scheduler
    /// state untouched).
    pub fn greedy_slot(&self) -> Option<usize> {
        self.greedy
    }

    /// Pick the warp to issue from this cycle: last-issued if still
    /// ready, else the oldest ready one. Updates the greedy pointer
    /// **only on a successful pick** — a cycle in which nothing is ready
    /// mutates no scheduler state, which is what lets a sleeping SM
    /// skip dead cycles without touching its schedulers at all.
    pub fn pick(&mut self, mut ready: impl FnMut(usize) -> bool) -> Option<usize> {
        if let Some(g) = self.greedy {
            if ready(g) {
                return Some(g);
            }
        }
        for &(_, slot) in &self.warps {
            if ready(slot) {
                self.greedy = Some(slot);
                return Some(slot);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sticks_with_greedy_warp_while_ready() {
        let mut s = GtoScheduler::new();
        s.add(0, 0);
        s.add(1, 1);
        assert_eq!(s.pick(|_| true), Some(0));
        assert_eq!(s.pick(|_| true), Some(0), "greedy repeats");
    }

    #[test]
    fn falls_back_to_oldest_ready() {
        let mut s = GtoScheduler::new();
        s.add(5, 10);
        s.add(3, 2); // older
        s.add(7, 30);
        assert_eq!(s.pick(|w| w != 3), Some(5), "oldest ready wins");
        // Now greedy=5; if 5 stalls and all ready, oldest (3) is next.
        assert_eq!(s.pick(|w| w != 5), Some(3));
    }

    #[test]
    fn returns_none_when_nothing_ready() {
        let mut s = GtoScheduler::new();
        s.add(0, 0);
        assert_eq!(s.pick(|_| false), None);
    }

    #[test]
    fn no_issue_pick_leaves_greedy_untouched() {
        // A sleeping SM skips cycles in which nothing can issue; that
        // is only sound if a fruitless pick would not have mutated the
        // greedy pointer.
        let mut s = GtoScheduler::new();
        s.add(0, 0);
        s.add(1, 1);
        assert_eq!(s.pick(|_| true), Some(0));
        assert_eq!(s.greedy_slot(), Some(0));
        assert_eq!(s.pick(|_| false), None);
        assert_eq!(s.greedy_slot(), Some(0), "no-issue cycles are pure");
    }

    #[test]
    fn removal_clears_greedy_pointer() {
        let mut s = GtoScheduler::new();
        s.add(0, 0);
        s.add(1, 1);
        assert_eq!(s.pick(|_| true), Some(0));
        s.remove(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pick(|_| true), Some(1));
    }

    #[test]
    fn ages_keep_insertion_sorted() {
        let mut s = GtoScheduler::new();
        s.add(2, 20);
        s.add(1, 10);
        s.add(3, 30);
        // None greedy yet; oldest ready = slot 1.
        assert_eq!(s.pick(|_| true), Some(1));
    }
}
