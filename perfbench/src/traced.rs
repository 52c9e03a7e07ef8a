//! The traced run: the workload's jobs with spans recorded around the
//! benchmark's calls into each layer, plus isolated replays of each
//! job's real inputs through the layers' public functions.
//!
//! Replay numbers are isolated-layer costs on the job's own input
//! stream, not self time inside `Gpu::run`:
//! * `l1d.replay` — the L1D access stream captured by an observer on
//!   every SM, replayed through `L1dCache::access_functional` on a fresh
//!   cache under the job's policy, in chunks while the job runs (the
//!   chunks are child spans of `sim.run`, so its self time excludes them);
//! * `l2.replay` — the L2-bound traffic that replay produces, routed by
//!   `icnt::partition_for` into fresh partitions'
//!   `MemoryPartition::l2_touch_functional`;
//! * `sim.coalesce` / `workloads.stream` — every warp stream drained
//!   again through `OpStream::next_op` (child spans), each memory op
//!   coalesced with `coalesce_into` (the parent's self time);
//! * `estimate.summarize` — the sampling estimator re-run on the job's
//!   window report.

use crate::spans::{totals, Recorder};
use crate::workload::{kernel, open_trace, sim_config, Job};
use dlp_bench::{summarize, SamplingSummary};
use dlp_core::build_policy;
use gpu_mem::icnt::partition_for;
use gpu_mem::{AccessObserver, L1dCache, MemReq, MemoryPartition};
use gpu_sim::isa::{OpKind, TraceOp};
use gpu_sim::{coalescer::coalesce_into, Gpu, RunStats, SimConfig};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Accesses buffered per SM before a replay chunk runs.
const L1D_CHUNK: usize = 8192;
/// Ops drained per `workloads.stream` span.
const STREAM_CHUNK: usize = 16384;

/// One L1D of the replay, fed by the observer of one SM.
struct L1dReplay {
    cache: L1dCache,
    line_bytes: u64,
    buf: Vec<(u64, u32, bool)>,
    effects: Vec<(u64, bool)>,
    replayed: u64,
}

/// The replay's L2: one partition per real partition.
struct L2Replay {
    parts: Vec<MemoryPartition>,
    touches: u64,
}

/// What the observers share with the job that owns them.
struct ReplayCtx {
    rec: Arc<Recorder>,
    l2: Mutex<L2Replay>,
    job: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("replay state poisoned by a panicking job")
}

impl ReplayCtx {
    /// Replay the buffered accesses of one SM, then the L2 traffic they
    /// produced, as two spans under `parent`.
    fn flush(&self, sm: &mut L1dReplay, parent: usize) {
        if sm.buf.is_empty() {
            return;
        }
        let job = Some(self.job);
        self.rec.scope("l1d.replay", Some(parent), job, || {
            for &(line, pc, is_write) in &sm.buf {
                let req = MemReq {
                    id: 0,
                    addr: line * sm.line_bytes,
                    is_write,
                    pc,
                    sm: 0,
                    warp: 0,
                    dst_reg: 0,
                    born: 0,
                };
                sm.cache
                    .access_functional(req, true, false, &mut sm.effects);
            }
        });
        sm.replayed += sm.buf.len() as u64;
        sm.buf.clear();
        let mut l2 = lock(&self.l2);
        self.rec.scope("l2.replay", Some(parent), job, || {
            let n = l2.parts.len();
            for &(addr, is_write) in &sm.effects {
                l2.parts[partition_for(addr, n)].l2_touch_functional(addr, is_write);
            }
        });
        l2.touches += sm.effects.len() as u64;
        sm.effects.clear();
    }
}

/// The observer attached to one SM: buffers each access and replays a
/// full chunk as a child span of the running `sim.run` span.
struct ReplayObserver {
    ctx: Arc<ReplayCtx>,
    sm: Arc<Mutex<L1dReplay>>,
    parent: usize,
}

impl AccessObserver for ReplayObserver {
    fn on_access(&mut self, _set: usize, line_addr: u64, pc: u32, is_write: bool) {
        let mut sm = lock(&self.sm);
        sm.buf.push((line_addr, pc, is_write));
        if sm.buf.len() >= L1D_CHUNK {
            self.ctx.flush(&mut sm, self.parent);
        }
    }
}

/// A traced job's outcome.
pub struct TracedJob {
    /// Simulation statistics.
    pub stats: RunStats,
    /// Cycles stepped one at a time.
    pub ticked: u64,
    /// Sampling estimates of a sampled run.
    pub sampling: Option<SamplingSummary>,
    /// Accesses the observers captured (and the L1D replay replayed).
    pub captured: u64,
    /// L2 touches the L2 replay made.
    pub l2_touches: u64,
    /// Warp instructions drained from the job's streams.
    pub ops: u64,
    /// Memory ops among them.
    pub mem_ops: u64,
    /// Largest resident footprint of any drained stream, bytes.
    pub peak_stream_bytes: u64,
}

/// A traced sweep.
pub struct TracedSweep {
    /// One entry per job, in job order.
    pub results: Vec<Result<TracedJob, String>>,
    /// Wall seconds of the whole traced sweep, replays included.
    pub wall_s: f64,
    /// Every span recorded.
    pub spans: Vec<crate::spans::Span>,
}

fn run_job(
    i: usize,
    job: &Job,
    sim: SimConfig,
    trace: Option<&gpu_workloads::TraceKernel>,
    rec: &Arc<Recorder>,
) -> Result<TracedJob, String> {
    let root = rec.open("harness.job", None, Some(i));
    let jid = Some(i);
    let k = rec.scope("workloads.build", Some(root), jid, || kernel(job, trace));
    let mut gpu = rec.scope("sim.new", Some(root), jid, || Gpu::new(sim, k));

    let ctx = Arc::new(ReplayCtx {
        rec: Arc::clone(rec),
        l2: Mutex::new(L2Replay {
            parts: (0..sim.icnt.num_partitions)
                .map(|_| MemoryPartition::new(sim.partition))
                .collect(),
            touches: 0,
        }),
        job: i,
    });
    let run_span = rec.open("sim.run", Some(root), jid);
    let sms: Vec<Arc<Mutex<L1dReplay>>> = (0..sim.num_sms)
        .map(|sm| {
            let state = Arc::new(Mutex::new(L1dReplay {
                cache: L1dCache::new(sim.l1d, build_policy(sim.policy, sim.l1d.geom)),
                line_bytes: sim.l1d.geom.line_bytes,
                buf: Vec::with_capacity(L1D_CHUNK),
                effects: Vec::new(),
                replayed: 0,
            }));
            let obs = ReplayObserver {
                ctx: Arc::clone(&ctx),
                sm: Arc::clone(&state),
                parent: run_span,
            };
            gpu.set_l1d_observer(sm, Box::new(obs));
            state
        })
        .collect();
    let run = gpu.run();
    rec.close(run_span);
    let fail = |e: String| format!("{}/{}: {e}", job.app, job.label);
    let stats = run.map_err(|e| fail(e.to_string()))?;
    if !stats.completed {
        return Err(fail("did not complete".into()));
    }
    let mut captured = 0;
    for sm in &sms {
        let mut sm = lock(sm);
        ctx.flush(&mut sm, root);
        captured += sm.replayed;
    }
    if captured != stats.l1d.accesses {
        return Err(fail(format!(
            "observers captured {captured} L1D accesses, RunStats counts {}",
            stats.l1d.accesses
        )));
    }
    let sampling = gpu
        .sampling_report()
        .map(|r| rec.scope("estimate.summarize", Some(root), jid, || summarize(r)));
    let ticked = gpu.ticked_cycles();
    drop(gpu);

    // Drain every warp stream again: `workloads.stream` children time
    // the drain, the parent's self time is the coalescer.
    let k = kernel(job, trace);
    let g = k.grid();
    let (mut ops, mut mem_ops, mut txns, mut peak) = (0u64, 0u64, 0u64, 0u64);
    let coalesce = rec.open("sim.coalesce", Some(root), jid);
    let mut chunk: Vec<TraceOp> = Vec::with_capacity(STREAM_CHUNK);
    let mut sectors = Vec::with_capacity(32);
    let mut warps = (0..g.num_ctas).flat_map(|c| (0..g.warps_per_cta).map(move |w| (c, w)));
    let mut stream = warps.next().map(|(c, w)| k.warp_stream(c, w));
    while stream.is_some() {
        let d = rec.open("workloads.stream", Some(coalesce), jid);
        chunk.clear();
        while chunk.len() < STREAM_CHUNK {
            let Some(s) = stream.as_mut() else { break };
            match s.next_op() {
                Some(op) => chunk.push(op),
                None => {
                    peak = peak.max(s.peak_resident_bytes() as u64);
                    stream = warps.next().map(|(c, w)| k.warp_stream(c, w));
                }
            }
        }
        rec.close(d);
        ops += chunk.len() as u64;
        for op in &chunk {
            if let OpKind::Mem { addrs, .. } = &op.kind {
                coalesce_into(addrs, 128, &mut sectors);
                mem_ops += 1;
                txns += sectors.len() as u64;
            }
        }
    }
    rec.close(coalesce);
    std::hint::black_box(txns);
    rec.close(root);
    let l2_touches = lock(&ctx.l2).touches;
    Ok(TracedJob {
        stats,
        ticked,
        sampling,
        captured,
        l2_touches,
        ops,
        mem_ops,
        peak_stream_bytes: peak,
    })
}

/// Run `jobs` traced on `workers` threads.
pub fn run_traced(jobs: &[Job], trace_path: Option<&Path>, workers: usize) -> TracedSweep {
    let rec = Arc::new(Recorder::default());
    let start = Instant::now();
    let trace = rec.scope("workloads.build", None, None, || open_trace(trace_path));
    let results = match trace {
        Ok(trace) => crate::workload::run_pool(jobs.len(), workers, |i| {
            run_job(i, &jobs[i], sim_config(&jobs[i].cfg), trace.as_ref(), &rec)
        }),
        Err(e) => jobs.iter().map(|_| Err(e.clone())).collect(),
    };
    let wall_s = start.elapsed().as_secs_f64();
    TracedSweep {
        results,
        wall_s,
        spans: rec.snapshot(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics of a traced sweep whose jobs all succeeded, by
/// name; the harness, trace-overhead, generation and fidelity metrics
/// come from elsewhere.
pub fn layer_metrics(sweep: &TracedSweep, jobs: &[&TracedJob]) -> Vec<(&'static str, f64)> {
    let t = totals(&sweep.spans);
    let dur = |name: &str| t.get(name).map_or(0.0, |v| v.0 as f64);
    let own = |name: &str| t.get(name).map_or(0.0, |v| v.1 as f64);
    let sum = |f: &dyn Fn(&TracedJob) -> u64| jobs.iter().map(|j| f(j)).sum::<u64>() as f64;

    let mut l1d = gpu_mem::CacheStats::default();
    let mut l2 = gpu_mem::CacheStats::default();
    let mut policy = dlp_core::PolicyStats::default();
    for j in jobs {
        l1d.merge(&j.stats.l1d);
        l2.merge(&j.stats.l2);
        policy.merge(&j.stats.policy);
    }
    let ops = sum(&|j| j.ops);
    let cycles = sum(&|j| j.stats.cycles);
    let ticked = sum(&|j| j.ticked);
    let sampled: Vec<&SamplingSummary> = jobs.iter().filter_map(|j| j.sampling.as_ref()).collect();
    let detailed: u64 = sampled.iter().map(|s| s.detailed_cycles).sum();
    let ff: u64 = sampled.iter().map(|s| s.ff_cycles).sum();
    let dram_row_hits = sum(&|j| j.stats.dram.row_hits);
    let dram_row_all = dram_row_hits + sum(&|j| j.stats.dram.row_misses);
    let bypassed = (l1d.bypassed_loads + l1d.bypassed_stores) as f64;

    vec![
        (
            "workloads.stream_ns_per_op",
            ratio(own("workloads.stream"), ops),
        ),
        (
            "workloads.peak_trace_bytes",
            jobs.iter().map(|j| j.peak_stream_bytes).max().unwrap_or(0) as f64,
        ),
        ("workloads.open_ms", dur("workloads.build") / 1e6),
        ("sim.new_ms", dur("sim.new") / 1e6),
        ("sim.run_ms", own("sim.run") / 1e6),
        ("sim.ns_per_warp_insn", ratio(own("sim.run"), ops)),
        ("sim.ticked_frac", ratio(ticked, cycles)),
        ("sim.ns_per_ticked_cycle", ratio(own("sim.run"), ticked)),
        (
            "sim.coalesce_ns_per_op",
            ratio(own("sim.coalesce"), sum(&|j| j.mem_ops)),
        ),
        (
            "sim.mem_txn_per_insn",
            ratio(
                sum(&|j| j.stats.mem_transactions),
                sum(&|j| j.stats.warp_insns),
            ),
        ),
        (
            "sampling.windows",
            sampled.iter().map(|s| s.windows).sum::<u64>() as f64,
        ),
        (
            "sampling.detailed_frac",
            if sampled.is_empty() {
                1.0
            } else {
                ratio(detailed as f64, (detailed + ff) as f64)
            },
        ),
        (
            "sampling.ci_rel_width_max",
            sampled.iter().map(|s| s.ci_rel_width()).fold(0.0, f64::max),
        ),
        (
            "l1d.replay_ns_per_access",
            ratio(dur("l1d.replay"), sum(&|j| j.captured)),
        ),
        ("l1d.accesses", l1d.accesses as f64),
        ("l1d.hit_rate", l1d.hit_rate()),
        ("l1d.bypass_frac", ratio(bypassed, l1d.accesses as f64)),
        (
            "l1d.rejected_per_access",
            ratio(
                l1d.rejected_submits as f64,
                (l1d.accesses + l1d.rejected_submits) as f64,
            ),
        ),
        ("l1d.stall_cycles", l1d.stall_cycles as f64),
        ("l1d.dirty_evictions", l1d.dirty_evictions as f64),
        ("policy.vta_hits", policy.vta_hits as f64),
        (
            "policy.protected_bypasses",
            policy.protected_bypasses as f64,
        ),
        (
            "policy.pd_changes",
            (policy.pd_increases + policy.pd_decreases) as f64,
        ),
        (
            "l2.replay_ns_per_touch",
            ratio(dur("l2.replay"), sum(&|j| j.l2_touches)),
        ),
        ("l2.accesses", l2.accesses as f64),
        ("l2.hit_rate", ratio(l2.hits as f64, l2.accesses as f64)),
        ("icnt.fwd_flits", sum(&|j| j.stats.icnt.fwd_flits)),
        ("icnt.ret_flits", sum(&|j| j.stats.icnt.ret_flits)),
        ("icnt.rejects", sum(&|j| j.stats.icnt.rejects)),
        ("dram.reads", sum(&|j| j.stats.dram.reads)),
        ("dram.writes", sum(&|j| j.stats.dram.writes)),
        ("dram.row_hit_rate", ratio(dram_row_hits, dram_row_all)),
        ("estimate.summarize_ms", dur("estimate.summarize") / 1e6),
    ]
}
