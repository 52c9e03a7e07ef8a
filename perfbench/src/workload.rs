//! The three workloads: which jobs each runs, how a sweep runs them
//! untraced, and how set-up time and the warp-instruction count are
//! measured.

use crate::report::fnv1a;
use crate::writemix::splitmix64;
use dlp_bench::harness::{self, ExperimentConfig, LABEL_32K};
use dlp_bench::{summarize, telemetry, AppRun, SamplingSummary};
use dlp_core::{CacheGeometry, PolicyKind};
use gpu_sim::{Gpu, Kernel, RunStats, SimConfig};
use gpu_workloads::{AppClass, Scale, TraceKernel};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Scale factor of `scale-sampled`.
pub const SCALE_FACTOR: u32 = 10;
/// Apps of the `figures scale` suite.
pub const SCALE_APPS: [&str; 3] = ["KM", "BFS", "STR"];
/// Schemes of `scale-sampled` and `trace-writemix`, as `figures scale`
/// and `figures trace` run them.
pub const SCHEMES: [PolicyKind; 2] = [PolicyKind::Baseline, PolicyKind::Dlp];
/// The sampling grid of `scale-sampled` (cycles): detail, skip and
/// warm-up, as in the repository's scale-smoke CI job. The fourth
/// field, the phase seed, comes from the benchmark seed.
pub const SAMPLING_GRID: (u64, u64, u64) = (2000, 18000, 2000);
/// App name of the synthetic trace kernel.
pub const WRITEMIX_APP: &str = "WRITEMIX";

/// FNV-1a digest of the full-scale `fig10-exact` sweep's statistics,
/// canonicalised as `tests/determinism.rs` does. A change that only
/// makes the simulator faster must leave it unchanged.
pub const FIG10_DIGEST: u64 = 0x2758_3c53_2d0f_8280;

/// A named set of inputs the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The full-scale policy suite behind `figures fig10`.
    Fig10Exact,
    /// The `figures scale` apps at 10× under interval sampling.
    ScaleSampled,
    /// The seeded store-heavy trace, replayed from a file.
    TraceWritemix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::Fig10Exact,
        Workload::ScaleSampled,
        Workload::TraceWritemix,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Exact => "fig10-exact",
            Workload::ScaleSampled => "scale-sampled",
            Workload::TraceWritemix => "trace-writemix",
        }
    }

    /// Parse a `--workload` value.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads a sweep runs on: the harness pool on the
    /// machine's cores, at most two; `trace-writemix` runs its jobs one
    /// after another, as `figures trace` does.
    pub fn workers(self) -> usize {
        match self {
            Workload::TraceWritemix => 1,
            Workload::Fig10Exact | Workload::ScaleSampled => std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(2),
        }
    }

    /// Environment variables the workload sets for its sweep processes
    /// beyond the isolation set every sweep gets.
    pub fn env(self, seed: u64) -> Vec<(&'static str, String)> {
        match self {
            Workload::ScaleSampled => {
                let (d, s, w) = SAMPLING_GRID;
                vec![
                    (harness::SCALE_ENV, SCALE_FACTOR.to_string()),
                    (
                        harness::SAMPLING_ENV,
                        format!("{d}:{s}:{w}:{}", splitmix64(seed) % s),
                    ),
                ]
            }
            Workload::Fig10Exact | Workload::TraceWritemix => Vec::new(),
        }
    }
}

/// Jobs per sweep of `w`.
pub fn job_count(w: Workload) -> usize {
    match w {
        Workload::Fig10Exact => gpu_workloads::registry().len() * (PolicyKind::ALL.len() + 1),
        Workload::ScaleSampled => SCALE_APPS.len() * SCHEMES.len(),
        Workload::TraceWritemix => SCHEMES.len(),
    }
}

/// One simulation job of a workload.
#[derive(Clone, Debug)]
pub struct Job {
    /// Application abbreviation.
    pub app: String,
    /// CS/CI class.
    pub class: AppClass,
    /// Scheme label, as the figures print it.
    pub label: &'static str,
    /// The configuration the harness runs it under.
    pub cfg: ExperimentConfig,
}

/// The jobs of `w`, in digest order. `scale-sampled` reads its scale
/// and sampling grid from the environment its sweep process was given.
pub fn jobs(w: Workload) -> Result<Vec<Job>, String> {
    let base = ExperimentConfig::baseline();
    Ok(match w {
        Workload::Fig10Exact => fig10_jobs(Scale::Full),
        Workload::ScaleSampled => {
            let factor = harness::scale_env()?.ok_or("DLP_SCALE is not set")?;
            let sampling = harness::sampling_env()
                .map_err(|e| e.to_string())?
                .ok_or("DLP_SAMPLING is not set")?;
            SCALE_APPS
                .iter()
                .flat_map(|app| {
                    SCHEMES.map(|k| Job {
                        app: app.to_string(),
                        class: gpu_workloads::registry::spec(app).class,
                        label: k.label(),
                        cfg: ExperimentConfig {
                            scale: Scale::Scaled(factor),
                            sampling: Some(sampling),
                            ..base.with_policy(k)
                        },
                    })
                })
                .collect()
        }
        Workload::TraceWritemix => SCHEMES
            .map(|k| Job {
                app: WRITEMIX_APP.to_string(),
                // Its tile is three times the L1D: cache-insufficient
                // by construction.
                class: AppClass::CI,
                label: k.label(),
                cfg: ExperimentConfig {
                    sampling: None,
                    ..base.with_policy(k)
                },
            })
            .to_vec(),
    })
}

/// The figure-10 policy suite at `scale`: every app under each scheme
/// on the 16 KB L1D, then the baseline on 32 KB.
pub fn fig10_jobs(scale: Scale) -> Vec<Job> {
    let base = ExperimentConfig {
        scale,
        sampling: None,
        ..ExperimentConfig::baseline()
    };
    gpu_workloads::registry()
        .into_iter()
        .flat_map(|spec| {
            let by_policy = PolicyKind::ALL.map(|k| (k.label(), base.with_policy(k)));
            let big = (LABEL_32K, base.with_geom(CacheGeometry::fermi_l1d_32k()));
            by_policy
                .into_iter()
                .chain([big])
                .map(move |(label, cfg)| Job {
                    app: spec.abbr.to_string(),
                    class: spec.class,
                    label,
                    cfg,
                })
        })
        .collect()
}

/// The simulator configuration the harness builds for `cfg` (see
/// `dlp_bench::harness::run_app`), for jobs the benchmark drives itself.
pub fn sim_config(cfg: &ExperimentConfig) -> SimConfig {
    let mut sim = SimConfig::tesla_m2090(cfg.policy)
        .with_l1_geometry(cfg.geom)
        .with_shards(1);
    sim.protection_override = cfg.protection;
    sim.warp_limit = cfg.warp_limit;
    sim.sampling = cfg.sampling;
    if let Scale::Scaled(f) = cfg.scale {
        sim.max_cycles = sim.max_cycles.saturating_mul(u64::from(f));
    }
    sim
}

/// The kernel `job` runs: a built-in generator, or the opened trace.
pub fn kernel(job: &Job, trace: Option<&TraceKernel>) -> Box<dyn Kernel> {
    match trace {
        Some(t) => Box::new(t.clone()),
        None => gpu_workloads::build(&job.app, job.cfg.scale),
    }
}

/// Open the workload's trace file, if it has one.
pub fn open_trace(path: Option<&Path>) -> Result<Option<TraceKernel>, String> {
    path.map(|p| TraceKernel::open(p).map_err(|e| format!("{}: {e}", p.display())))
        .transpose()
}

/// A completed job.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Simulation statistics.
    pub stats: RunStats,
    /// Sampling estimates of a sampled run.
    pub sampling: Option<SamplingSummary>,
    /// Host wall time of the job, ms.
    pub wall_ms: f64,
}

/// One untraced sweep.
pub struct Sweep {
    /// One entry per job, in [`jobs`] order.
    pub results: Vec<Result<JobResult, String>>,
    /// Wall seconds from the first kernel construction to the last
    /// job's end.
    pub wall_s: f64,
    /// Output-check failures found while collecting the results.
    pub problems: Vec<String>,
}

fn geom_label(g: CacheGeometry) -> String {
    format!("{}KB/{}-way", g.capacity_bytes() / 1024, g.assoc)
}

/// Run `jobs` of workload `w` once, untraced, the way a user runs them:
/// `fig10-exact` through `run_policy_suite`, `scale-sampled` through
/// `run_many`, `trace-writemix` like `figures trace`, on `workers`
/// threads.
pub fn run_sweep(w: Workload, jobs: &[Job], trace_path: Option<&Path>, workers: usize) -> Sweep {
    let start = Instant::now();
    let mut problems = Vec::new();
    let from_harness = |run: Result<AppRun, String>| {
        run.map(|r| JobResult {
            stats: r.stats,
            sampling: r.sampling,
            wall_ms: 0.0,
        })
    };
    let mut results: Vec<Result<JobResult, String>> = match w {
        Workload::Fig10Exact => {
            let suite =
                dlp_bench::run_policy_suite(jobs.first().map_or(Scale::Full, |j| j.cfg.scale));
            jobs.iter()
                .map(|j| {
                    let run = suite.runs.get(&j.app).and_then(|r| r.get(j.label)).cloned();
                    from_harness(run.ok_or_else(|| {
                        suite
                            .failed
                            .get(&j.app)
                            .and_then(|f| f.get(j.label))
                            .map_or_else(
                                || format!("{}/{}: no result", j.app, j.label),
                                |f| f.to_string(),
                            )
                    }))
                })
                .collect()
        }
        Workload::ScaleSampled => {
            let pairs: Vec<_> = jobs.iter().map(|j| (j.app.clone(), j.cfg)).collect();
            harness::run_many(&pairs)
                .into_iter()
                .map(|r| from_harness(r.map_err(|f| f.to_string())))
                .collect()
        }
        Workload::TraceWritemix => match open_trace(trace_path) {
            Ok(trace) => run_pool(jobs.len(), workers, |i| {
                let t0 = Instant::now();
                let mut gpu = Gpu::new(sim_config(&jobs[i].cfg), kernel(&jobs[i], trace.as_ref()));
                let stats = gpu
                    .run()
                    .map_err(|e| format!("{}/{}: {e}", jobs[i].app, jobs[i].label))?;
                if !stats.completed {
                    return Err(format!(
                        "{}/{}: did not complete",
                        jobs[i].app, jobs[i].label
                    ));
                }
                let sampling = gpu.sampling_report().map(summarize);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                Ok(JobResult {
                    stats,
                    sampling,
                    wall_ms,
                })
            }),
            Err(e) => jobs.iter().map(|_| Err(e.clone())).collect(),
        },
    };
    let wall_s = start.elapsed().as_secs_f64();

    if w != Workload::TraceWritemix {
        // Harness jobs: wall times from its telemetry, and proof that
        // every result was simulated here, not served from a cache.
        let records = telemetry::jobs_snapshot();
        if records.len() != jobs.len() {
            problems.push(format!(
                "{} telemetry records for {} jobs",
                records.len(),
                jobs.len()
            ));
        }
        for r in records.iter().filter(|r| r.cached || r.store_hit) {
            problems.push(format!(
                "{}/{}: served from the run cache or store",
                r.app, r.policy
            ));
        }
        let walls: HashMap<(&str, &str, &str), f64> = records
            .iter()
            .map(|r| {
                (
                    (r.app.as_str(), r.policy.as_str(), r.geom.as_str()),
                    r.wall_ms,
                )
            })
            .collect();
        for (j, res) in jobs.iter().zip(results.iter_mut()) {
            if let Ok(r) = res {
                let geom = geom_label(j.cfg.geom);
                match walls.get(&(j.app.as_str(), j.cfg.policy.label(), geom.as_str())) {
                    Some(&ms) => r.wall_ms = ms,
                    None => problems.push(format!("{}/{}: no telemetry record", j.app, j.label)),
                }
            }
        }
    }
    Sweep {
        results,
        wall_s,
        problems,
    }
}

/// Run `n` jobs on `workers` scoped threads; results in job order.
pub fn run_pool<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..workers.clamp(1, n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job index is claimed")
        })
        .collect()
}

/// FNV-1a over every job's `RunStats` `{:?}`, one `app/label: stats`
/// line per job in job order; `None` if any job failed.
pub fn digest(jobs: &[Job], stats: &[Option<&RunStats>]) -> Option<u64> {
    let mut canon = String::new();
    for (j, s) in jobs.iter().zip(stats) {
        canon.push_str(&format!("{}/{}: {:?}\n", j.app, j.label, (*s)?));
    }
    Some(fnv1a(canon.as_bytes()))
}

/// Seconds to construct every job's kernel and simulator, as the sweep
/// does before its first simulated cycle (the trace is opened once and
/// shared, as `figures trace` does).
pub fn setup_once(jobs: &[Job], trace_path: Option<&Path>) -> Result<f64, String> {
    let start = Instant::now();
    let trace = open_trace(trace_path)?;
    for j in jobs {
        let gpu = Gpu::new(sim_config(&j.cfg), kernel(j, trace.as_ref()));
        std::hint::black_box(&gpu);
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Warp instructions the workload's kernels hold, counted by draining
/// every warp stream once per distinct kernel — the same count in
/// exact and sampled mode.
pub fn stream_insns(jobs: &[Job], trace_path: Option<&Path>) -> Result<u64, String> {
    let trace = open_trace(trace_path)?;
    let mut per_kernel: HashMap<(String, Scale), u64> = HashMap::new();
    let mut total = 0;
    for j in jobs {
        let key = (j.app.clone(), j.cfg.scale);
        let n = match per_kernel.get(&key) {
            Some(&n) => n,
            None => {
                let k = kernel(j, trace.as_ref());
                let g = k.grid();
                let mut n = 0u64;
                for cta in 0..g.num_ctas {
                    for warp in 0..g.warps_per_cta {
                        let mut s = k.warp_stream(cta, warp);
                        while s.next_op().is_some() {
                            n += 1;
                        }
                    }
                }
                per_kernel.insert(key, n);
                n
            }
        };
        total += n;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_the_determinism_suite_golden() {
        // The same canonical form as tests/determinism.rs: at Tiny scale
        // the sweep digest is that suite's golden value.
        let jobs = fig10_jobs(Scale::Tiny);
        assert_eq!(jobs.len(), job_count(Workload::Fig10Exact));
        let sweep = run_sweep(Workload::Fig10Exact, &jobs, None, 2);
        assert!(sweep.problems.is_empty(), "{:?}", sweep.problems);
        let stats: Vec<_> = sweep
            .results
            .iter()
            .map(|r| r.as_ref().ok().map(|j| &j.stats))
            .collect();
        assert_eq!(digest(&jobs, &stats), Some(0x4e25_bd31_86d4_d866));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::report::valid_metric_name(w.name()));
        }
        assert_eq!(Workload::parse("fig10"), None);
    }

    #[test]
    fn scale_env_varies_the_sampling_phase_with_the_seed() {
        let phase = |seed| Workload::ScaleSampled.env(seed)[1].1.clone();
        assert_ne!(phase(1), phase(2));
        assert_eq!(phase(7), phase(7));
        assert!(Workload::Fig10Exact.env(1).is_empty());
    }
}
