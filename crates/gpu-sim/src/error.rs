//! Typed simulation failures and the hang diagnostic they carry.
//!
//! A simulation that cannot make progress used to spin until the cycle
//! cap and return `completed: false` with no explanation. Failures are
//! now first-class: [`crate::Gpu::run`] returns `Result<RunStats,
//! SimError>`, and the hang-shaped variants carry a [`HangReport`] — a
//! snapshot of every queue and MSHR in the machine at the moment the
//! watchdog gave up, which is usually enough to localize a deadlock to
//! one component without re-running anything.

use gpu_mem::MemError;
use std::fmt;

/// Why a simulation was aborted.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The forward-progress watchdog saw no instruction retire and no
    /// memory reply arrive for the configured window.
    Hang(Box<HangReport>),
    /// The run was still making progress but exceeded `max_cycles`.
    CycleCapExceeded(Box<HangReport>),
    /// An SM's L1D hit a structural invariant violation (orphan fill,
    /// impossible packet kind).
    MshrViolation {
        /// The SM whose L1D failed.
        sm: usize,
        /// The underlying memory-hierarchy error.
        source: MemError,
        /// Core cycle of the failure.
        cycle: u64,
    },
    /// A memory partition hit a structural invariant violation.
    PartitionFault {
        /// The failing partition.
        partition: usize,
        /// The underlying memory-hierarchy error.
        source: MemError,
        /// Core cycle of the failure.
        cycle: u64,
    },
    /// A forward packet arrived at a partition that does not service its
    /// address — the interconnect (or a fault injector) misrouted it.
    PacketMisrouted {
        /// Port the packet arrived at.
        port: usize,
        /// Port its address maps to.
        expected: usize,
        /// The packet's byte address.
        addr: u64,
        /// Core cycle of the failure.
        cycle: u64,
    },
    /// An SM's warp bookkeeping was found corrupt: a memory response or
    /// scheduler pick named a warp slot that holds no live warp, or a
    /// retiring warp's CTA is not in the resident list.
    WarpStateCorrupt {
        /// The SM whose warp state failed.
        sm: usize,
        /// The warp slot involved.
        slot: usize,
        /// Which bookkeeping invariant broke.
        what: &'static str,
        /// Core cycle of the failure.
        cycle: u64,
    },
    /// The round-robin CTA launch cursor overflowed `usize`. A wrap
    /// would silently corrupt the CTA launch order. Practically
    /// unreachable on 64-bit hosts, but a wrap must abort rather than
    /// desync the launch schedule.
    LaunchCursorOverflow {
        /// Core cycle of the launch scan.
        cycle: u64,
    },
    /// The periodic invariant auditor found a conservation law broken.
    InvariantViolation {
        /// Which audit check failed.
        check: &'static str,
        /// Human-readable specifics (counts on each side of the law).
        detail: String,
        /// Core cycle of the audit.
        cycle: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Hang(r) => write!(
                f,
                "no forward progress since cycle {} (watchdog fired at cycle {})",
                r.last_progress_cycle, r.cycle
            ),
            SimError::CycleCapExceeded(r) => {
                write!(f, "cycle cap exceeded at cycle {} with work still in flight", r.cycle)
            }
            SimError::MshrViolation { sm, source, cycle } => {
                write!(f, "SM {sm} L1D invariant violated at cycle {cycle}: {source}")
            }
            SimError::PartitionFault { partition, source, cycle } => {
                write!(f, "partition {partition} invariant violated at cycle {cycle}: {source}")
            }
            SimError::PacketMisrouted { port, expected, addr, cycle } => write!(
                f,
                "packet for address {addr:#x} (partition {expected}) arrived at partition {port} at cycle {cycle}"
            ),
            SimError::WarpStateCorrupt { sm, slot, what, cycle } => {
                write!(f, "SM {sm} warp slot {slot} corrupt at cycle {cycle}: {what}")
            }
            SimError::LaunchCursorOverflow { cycle } => {
                write!(f, "CTA launch cursor overflowed at cycle {cycle}")
            }
            SimError::InvariantViolation { check, detail, cycle } => {
                write!(f, "invariant '{check}' violated at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::MshrViolation { source, .. } | SimError::PartitionFault { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

impl SimError {
    /// The attached machine snapshot, for the hang-shaped variants.
    pub fn hang_report(&self) -> Option<&HangReport> {
        match self {
            SimError::Hang(r) | SimError::CycleCapExceeded(r) => Some(r),
            _ => None,
        }
    }
}

/// Per-SM state at failure time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmSnapshot {
    /// SM index.
    pub id: usize,
    /// Warps resident and not yet finished.
    pub active_warps: usize,
    /// Warp instructions issued so far.
    pub warp_insns: u64,
    /// Coalesced transactions waiting for the L1D.
    pub ldst_queue: usize,
    /// Outstanding L1D MSHR entries.
    pub mshr_occupancy: usize,
    /// L1D packets waiting to enter the crossbar.
    pub outgoing: usize,
    /// Is the L1D input blocked by a stalled access?
    pub input_blocked: bool,
}

/// Per-partition state at failure time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSnapshot {
    /// Partition index.
    pub id: usize,
    /// Packets waiting in the input queue.
    pub in_queue: usize,
    /// Outstanding L2 MSHR entries.
    pub l2_mshr: usize,
    /// Replies waiting for the crossbar.
    pub out_queue: usize,
    /// Is the DRAM channel idle?
    pub dram_idle: bool,
}

/// Machine-wide snapshot captured when a run is aborted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HangReport {
    /// Cycle the report was captured.
    pub cycle: u64,
    /// Last cycle at which any instruction retired or reply arrived.
    pub last_progress_cycle: u64,
    /// CTAs never launched.
    pub pending_ctas: usize,
    /// Reply-expecting packets sent into the crossbar so far.
    pub fetches_sent: u64,
    /// Replies delivered back to L1Ds so far.
    pub replies_delivered: u64,
    /// Packets somewhere in the crossbar.
    pub icnt_in_flight: usize,
    /// Forward-queue depth per partition port.
    pub icnt_fwd_depths: Vec<usize>,
    /// Return-queue depth per SM port.
    pub icnt_ret_depths: Vec<usize>,
    /// One entry per SM.
    pub sms: Vec<SmSnapshot>,
    /// One entry per memory partition.
    pub partitions: Vec<PartitionSnapshot>,
}

impl HangReport {
    /// Reply-expecting fetches that never came back.
    pub fn missing_replies(&self) -> u64 {
        self.fetches_sent.saturating_sub(self.replies_delivered)
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hang report at cycle {} (last progress: cycle {})",
            self.cycle, self.last_progress_cycle
        )?;
        writeln!(
            f,
            "  fetches sent {}, replies delivered {} ({} missing), {} packets in crossbar, {} CTAs unlaunched",
            self.fetches_sent,
            self.replies_delivered,
            self.missing_replies(),
            self.icnt_in_flight,
            self.pending_ctas
        )?;
        for sm in &self.sms {
            if sm.active_warps > 0 || sm.mshr_occupancy > 0 || sm.ldst_queue > 0 {
                writeln!(
                    f,
                    "  SM {:2}: {} active warps, {} insns issued, ldst queue {}, MSHR {}, outgoing {}{}",
                    sm.id,
                    sm.active_warps,
                    sm.warp_insns,
                    sm.ldst_queue,
                    sm.mshr_occupancy,
                    sm.outgoing,
                    if sm.input_blocked { ", input blocked" } else { "" }
                )?;
            }
        }
        for p in &self.partitions {
            if p.in_queue > 0 || p.l2_mshr > 0 || p.out_queue > 0 || !p.dram_idle {
                writeln!(
                    f,
                    "  partition {:2}: in {}, L2 MSHR {}, out {}, DRAM {}",
                    p.id,
                    p.in_queue,
                    p.l2_mshr,
                    p.out_queue,
                    if p.dram_idle { "idle" } else { "busy" }
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HangReport {
        HangReport {
            cycle: 5000,
            last_progress_cycle: 1000,
            pending_ctas: 2,
            fetches_sent: 10,
            replies_delivered: 9,
            icnt_in_flight: 0,
            icnt_fwd_depths: vec![0; 2],
            icnt_ret_depths: vec![0; 2],
            sms: vec![SmSnapshot {
                id: 0,
                active_warps: 3,
                warp_insns: 17,
                ldst_queue: 1,
                mshr_occupancy: 1,
                outgoing: 0,
                input_blocked: true,
            }],
            partitions: vec![PartitionSnapshot {
                id: 0,
                in_queue: 0,
                l2_mshr: 0,
                out_queue: 0,
                dram_idle: true,
            }],
        }
    }

    #[test]
    fn display_surfaces_the_stuck_components() {
        let text = SimError::Hang(Box::new(report())).to_string();
        assert!(text.contains("cycle 1000"));
        let body = report().to_string();
        assert!(body.contains("1 missing"));
        assert!(body.contains("SM  0"));
        assert!(body.contains("input blocked"));
    }

    #[test]
    fn missing_replies_counts_the_gap() {
        assert_eq!(report().missing_replies(), 1);
    }
}
