//! Per-warp execution state: instruction stream position and the
//! register scoreboard.

use crate::isa::{OpKind, Reg, TraceOp, MAX_REGS, NO_REG};
use crate::stream::OpStream;

/// One resident warp.
pub struct Warp {
    /// Warp slot index within the SM.
    pub slot: usize,
    /// Global CTA this warp belongs to.
    pub cta: usize,
    /// Launch order stamp (GTO "oldest" tiebreak).
    pub age: u64,
    stream: Box<dyn OpStream>,
    /// The next op to issue, pulled eagerly from the stream so the
    /// scheduler's scoreboard/next-op predicates stay `&self` reads.
    cur: Option<TraceOp>,
    /// Bitmask of registers with an outstanding producer.
    pending_mask: u64,
    /// Outstanding transaction count per register (loads split into
    /// several sector transactions).
    pending_count: [u16; MAX_REGS],
    /// Stores issued but not yet retired by the L1D.
    outstanding_stores: u32,
}

impl Warp {
    /// Create a warp about to execute `stream`.
    pub fn new(slot: usize, cta: usize, age: u64, mut stream: Box<dyn OpStream>) -> Self {
        let cur = stream.next_op();
        Warp {
            slot,
            cta,
            age,
            stream,
            cur,
            pending_mask: 0,
            pending_count: [0; MAX_REGS],
            outstanding_stores: 0,
        }
    }

    /// The next op to issue, if the stream isn't exhausted.
    pub fn peek(&self) -> Option<&TraceOp> {
        self.cur.as_ref()
    }

    /// All instructions issued?
    pub fn stream_done(&self) -> bool {
        self.cur.is_none()
    }

    /// Stream exhausted *and* all outstanding work retired?
    pub fn finished(&self) -> bool {
        self.stream_done() && self.pending_mask == 0 && self.outstanding_stores == 0
    }

    /// High-water mark of trace bytes this warp's stream kept resident.
    pub fn peak_trace_bytes(&self) -> usize {
        self.stream.peak_resident_bytes()
    }

    #[inline]
    fn reg_pending(&self, r: Reg) -> bool {
        r != NO_REG && (self.pending_mask >> (r as u64 % MAX_REGS as u64)) & 1 == 1
    }

    /// Scoreboard check: can the next op issue this cycle?
    pub fn scoreboard_ready(&self) -> bool {
        match self.peek() {
            None => false,
            Some(op) => {
                !self.reg_pending(op.dst)
                    && !self.reg_pending(op.srcs[0])
                    && !self.reg_pending(op.srcs[1])
            }
        }
    }

    /// Mark a register as awaiting `producers` writebacks.
    pub fn mark_pending(&mut self, r: Reg, producers: u16) {
        assert!(r != NO_REG && (r as usize) < MAX_REGS);
        assert_eq!(self.pending_count[r as usize], 0, "register already pending");
        assert!(producers > 0);
        self.pending_count[r as usize] = producers;
        self.pending_mask |= 1 << r;
    }

    /// One producer of `r` completed. Clears the scoreboard bit when the
    /// last one lands.
    pub fn complete_one(&mut self, r: Reg) {
        assert!(r != NO_REG && (r as usize) < MAX_REGS);
        let c = &mut self.pending_count[r as usize];
        assert!(*c > 0, "completion for a register that is not pending");
        *c -= 1;
        if *c == 0 {
            self.pending_mask &= !(1 << r);
        }
    }

    /// Track a store leaving for the L1D.
    pub fn store_issued(&mut self, transactions: u32) {
        self.outstanding_stores += transactions;
    }

    /// A store transaction retired.
    pub fn store_retired(&mut self) {
        assert!(self.outstanding_stores > 0);
        self.outstanding_stores -= 1;
    }

    /// Advance past the op just issued, returning it. The following op
    /// (if any) is pulled from the stream immediately, keeping the
    /// peek-based predicates valid.
    pub fn advance(&mut self) -> TraceOp {
        assert!(self.cur.is_some(), "advance past the end of the stream");
        // Unreachable fallback after the assert; keeps the signature
        // total without a panicking-macro path in simulator code.
        let op = self.cur.take().unwrap_or(TraceOp::alu(0, 0));
        self.cur = self.stream.next_op();
        op
    }

    /// Is the next op a memory op (needs the LD/ST unit)?
    pub fn next_is_mem(&self) -> bool {
        matches!(self.peek().map(|o| &o.kind), Some(OpKind::Mem { .. }))
    }

    /// Does unblocking this warp require an *event* — a memory response,
    /// ALU writeback, or store retirement — rather than just another
    /// issue slot? True exactly when the warp is alive but cannot issue.
    /// Per-SM sleep leans on this: such a warp cannot become issuable
    /// while its SM sleeps, because every producer completion is itself
    /// a scheduled event.
    pub fn needs_wakeup_event(&self) -> bool {
        !self.finished() && !self.scoreboard_ready()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::TraceOp;
    use crate::stream::VecStream;

    fn warp(ops: Vec<TraceOp>) -> Warp {
        Warp::new(0, 0, 0, Box::new(VecStream::new(ops)))
    }

    #[test]
    fn empty_warp_is_finished() {
        let w = warp(vec![]);
        assert!(w.finished());
        assert!(!w.scoreboard_ready());
    }

    #[test]
    fn dependent_op_waits_for_load() {
        let mut w = warp(vec![
            TraceOp::load(0, 1, vec![0]),
            TraceOp::alu(1, 2).with_srcs([1]).with_dst(2),
        ]);
        assert!(w.scoreboard_ready());
        w.advance();
        w.mark_pending(1, 1);
        assert!(!w.scoreboard_ready(), "src r1 pending");
        w.complete_one(1);
        assert!(w.scoreboard_ready());
    }

    #[test]
    fn independent_op_issues_under_outstanding_load() {
        let mut w = warp(vec![
            TraceOp::load(0, 1, vec![0]),
            TraceOp::alu(1, 2).with_dst(3),
        ]);
        w.advance();
        w.mark_pending(1, 1);
        assert!(w.scoreboard_ready(), "no operand overlap -> can issue");
    }

    #[test]
    fn waw_on_pending_dst_blocks() {
        let mut w = warp(vec![
            TraceOp::load(0, 1, vec![0]),
            TraceOp::alu(1, 2).with_dst(1),
        ]);
        w.advance();
        w.mark_pending(1, 1);
        assert!(!w.scoreboard_ready());
    }

    #[test]
    fn multi_transaction_load_completes_after_all_parts() {
        let mut w = warp(vec![TraceOp::load(0, 5, vec![0, 4096])]);
        w.advance();
        w.mark_pending(5, 2);
        assert!(!w.finished());
        w.complete_one(5);
        assert!(!w.finished());
        w.complete_one(5);
        assert!(w.finished());
    }

    #[test]
    fn outstanding_stores_hold_completion() {
        let mut w = warp(vec![TraceOp::store(0, vec![0])]);
        w.advance();
        w.store_issued(1);
        assert!(w.stream_done());
        assert!(!w.finished());
        w.store_retired();
        assert!(w.finished());
    }

    #[test]
    fn advance_returns_ops_in_stream_order() {
        let ops = vec![
            TraceOp::load(0, 1, vec![0]),
            TraceOp::alu(1, 2).with_srcs([1]).with_dst(2),
        ];
        let mut w = warp(ops.clone());
        assert_eq!(w.advance(), ops[0]);
        assert_eq!(w.advance(), ops[1]);
        assert!(w.stream_done());
    }

    #[test]
    fn peak_trace_bytes_reports_the_stream_high_water_mark() {
        let ops = vec![TraceOp::load(0, 1, vec![0, 4096])];
        let expect = crate::stream::ops_bytes(&ops);
        let w = warp(ops);
        assert_eq!(w.peak_trace_bytes(), expect);
    }

    #[test]
    #[should_panic(expected = "register already pending")]
    fn double_pending_panics() {
        let mut w = warp(vec![TraceOp::load(0, 1, vec![0]), TraceOp::load(1, 1, vec![0])]);
        w.advance();
        w.mark_pending(1, 1);
        w.advance();
        w.mark_pending(1, 1);
    }
}
