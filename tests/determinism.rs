//! The whole simulator must be bit-deterministic: two constructions of
//! the same experiment produce identical statistics, regardless of
//! scheme, geometry or workload randomness (all RNGs are seeded).
//!
//! Per-SM sleep (see DESIGN.md "Idle-skip and per-SM sleep") makes the
//! same claim about itself: every statistic is byte-identical to a run
//! that cycles every busy SM. The reference for that comparison is an
//! audited run (`audit_interval > 0`), which is the sleep-off path the
//! `audit` build takes everywhere.

use dlp_core::{CacheGeometry, PolicyKind};
use gpu_mem::{FaultConfig, FaultKind, FaultSite};
use gpu_sim::{Gpu, RunStats, SamplingConfig, SimConfig, SimError};
use gpu_workloads::{build, Scale};

fn run_once(app: &str, kind: PolicyKind) -> RunStats {
    let cfg = SimConfig::tesla_m2090(kind).scaled_down(4);
    let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
    gpu.run().unwrap()
}

fn assert_identical(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.thread_insns, b.thread_insns, "{what}: thread insns");
    assert_eq!(a.l1d, b.l1d, "{what}: L1D stats");
    assert_eq!(a.l2, b.l2, "{what}: L2 stats");
    assert_eq!(a.icnt, b.icnt, "{what}: icnt stats");
    assert_eq!(a.dram, b.dram, "{what}: DRAM stats");
    assert_eq!(a.policy, b.policy, "{what}: policy stats");
}

#[test]
fn repeated_runs_are_bit_identical() {
    // The randomized-address apps are the interesting cases.
    for app in ["BFS", "STR", "BT", "PVR", "CFD"] {
        for kind in PolicyKind::ALL {
            let a = run_once(app, kind);
            let b = run_once(app, kind);
            assert_identical(&a, &b, &format!("{app}/{kind:?}"));
        }
    }
}

#[test]
fn incremental_driving_matches_one_shot() {
    // run_for() in small steps must land on the same final state as a
    // single run() — the clock loop has no hidden per-call state.
    let mk = || {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Dlp).scaled_down(2);
        Gpu::new(cfg, build("KM", Scale::Tiny))
    };
    let one_shot = mk().run().unwrap();
    let mut gpu = mk();
    let mut last = gpu.run_for(137).unwrap();
    while !last.completed {
        last = gpu.run_for(137).unwrap();
    }
    assert_identical(&one_shot, &last, "incremental vs one-shot");
}

#[test]
fn rd_profiles_are_deterministic() {
    use rd_tools::RdProfiler;
    let run = |app: &str| {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        let mut gpu = Gpu::new(cfg, build(app, Scale::Tiny));
        let sink = RdProfiler::new_sink();
        for sm in 0..cfg.num_sms {
            gpu.set_l1d_observer(sm, Box::new(RdProfiler::new(cfg.l1d.geom.num_sets, sink.clone())));
        }
        gpu.run().unwrap();
        let prof = sink.lock();
        (prof.overall, prof.per_pc.len())
    };
    assert_eq!(run("BFS"), run("BFS"));
    assert_eq!(run("STR"), run("STR"));
}

#[test]
fn run_many_is_independent_of_worker_count() {
    // The harness farms jobs out to worker threads; scheduling must not
    // leak into results. A serial sweep and a parallel sweep of the
    // same jobs produce byte-identical statistics, job for job.
    use dlp_bench::harness::{run_many_with_workers, ExperimentConfig};
    let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
    let jobs: Vec<_> =
        ["KM", "MM", "BFS", "STR", "SS"].iter().map(|a| (a.to_string(), cfg)).collect();
    let serial = run_many_with_workers(&jobs, 1);
    // More workers than jobs (8 > 5) exercises the steal path: some
    // workers start with an empty queue and must steal their first job.
    for workers in [4, 8] {
        let parallel = run_many_with_workers(&jobs, workers);
        assert_eq!(serial.len(), parallel.len());
        for ((s, p), (app, _)) in serial.iter().zip(&parallel).zip(&jobs) {
            let s = s.as_ref().unwrap_or_else(|f| panic!("{f}"));
            let p = p.as_ref().unwrap_or_else(|f| panic!("{f}"));
            assert_eq!(
                s.stats, p.stats,
                "{app}: worker count {workers} changed the statistics"
            );
        }
    }
}

/// FNV-1a, enough to fingerprint a canonical stats rendering without
/// pulling a hash crate into the workspace.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[test]
fn fig10_policy_suite_digest_is_golden() {
    // End-to-end lock on the figure-10 sweep: every statistic of every
    // (app, scheme) cell, fingerprinted. Any change to the simulation
    // engine that alters behaviour — idle-skip ticking, the run cache,
    // replacement-policy scratch buffers — must NOT move this digest;
    // a deliberate fidelity change must update it alongside an entry in
    // CHANGES.md explaining the delta.
    use dlp_bench::harness::{run_policy_suite, LABEL_32K};
    const GOLDEN: u64 = 0x4e25_bd31_86d4_d866;
    let suite = run_policy_suite(Scale::Tiny);
    assert!(suite.failures.is_empty(), "{}", suite.failure_digest());
    let mut canon = String::new();
    let mut cells = String::new();
    for spec in &suite.apps {
        let row = &suite.runs[spec.abbr];
        for label in PolicyKind::ALL.map(|k| k.label()).iter().chain([&LABEL_32K]) {
            let cell = format!("{}/{}: {:?}\n", spec.abbr, label, row[label].stats);
            cells.push_str(&format!(
                "  {:>4}/{:<9} {:#018x}\n",
                spec.abbr,
                label,
                fnv1a(cell.as_bytes())
            ));
            canon.push_str(&cell);
        }
    }
    let digest = fnv1a(canon.as_bytes());
    // On mismatch, print the digest of every (app, scheme) cell so the
    // change is localizable by diffing against a known-good run's table
    // instead of bisecting 100+ jobs by hand.
    assert_eq!(
        digest, GOLDEN,
        "fig10 sweep statistics changed (digest {digest:#018x}, golden {GOLDEN:#018x}).\n\
         Per-cell digests — diff against a pre-change run of this test to find the moved cells:\n\
         {cells}"
    );
}

#[test]
fn deadline_chunked_driving_is_byte_identical_to_unlimited() {
    // With `DLP_JOB_DEADLINE_MS` set, the harness drives a job with
    // chunked `run_for` calls instead of one `run()`; nothing about the
    // statistics may depend on which path ran. Compared at the byte
    // level through the persist codec (the run store's form), via the
    // uncached test hook — through `run_app` the second arm would be a
    // cache hit and the comparison vacuous.
    use dlp_bench::harness::{run_app_uncached_for_tests, ExperimentConfig};
    use std::time::Duration;
    let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
    for app in ["KM", "CFD", "STR"] {
        let unlimited = run_app_uncached_for_tests(app, cfg, None, None).unwrap();
        // Generous budget, default chunk: the deadline arm, never firing.
        let chunked =
            run_app_uncached_for_tests(app, cfg, Some(Duration::from_secs(3600)), None).unwrap();
        assert_eq!(
            dlp_bench::persist::encode_run(app, &unlimited),
            dlp_bench::persist::encode_run(app, &chunked),
            "{app}: deadline-chunked run diverged from the unlimited path"
        );
        // A forced 137-cycle chunk makes the job cross dozens of
        // run_for boundaries — still byte-identical.
        let fine =
            run_app_uncached_for_tests(app, cfg, Some(Duration::from_secs(3600)), Some(137))
                .unwrap();
        assert_eq!(
            dlp_bench::persist::encode_run(app, &unlimited),
            dlp_bench::persist::encode_run(app, &fine),
            "{app}: fine-chunked run diverged from the unlimited path"
        );
    }
}

/// `cfg` with per-SM sleep off: the periodic auditor runs (read-only)
/// and every busy SM is cycled every cycle.
fn sleep_off(mut cfg: SimConfig) -> SimConfig {
    cfg.audit_interval = 4096;
    cfg
}

#[test]
fn sleep_and_reference_statistics_are_byte_identical() {
    // Memory-bound, cache-friendly, and mixed apps, all four schemes:
    // the matrix where a leak in the sleep bound or the deferred stall
    // aging would show up as a moved counter. Compare whole-struct
    // equality AND the per-cell FNV digest of the Debug rendering, so a
    // mismatch names the exact cell rather than an opaque struct diff.
    let mut table = String::new();
    let mut mismatches = String::new();
    for app in ["KM", "BFS", "STR", "CFD"] {
        for kind in PolicyKind::ALL {
            let cfg = SimConfig::tesla_m2090(kind).scaled_down(4);
            let sleep = Gpu::new(cfg, build(app, Scale::Tiny)).run().unwrap();
            let refr = Gpu::new(sleep_off(cfg), build(app, Scale::Tiny)).run().unwrap();
            let ds = fnv1a(format!("{sleep:?}").as_bytes());
            let dr = fnv1a(format!("{refr:?}").as_bytes());
            table.push_str(&format!("  {app:>4}/{kind:<18?} {ds:#018x}\n"));
            if sleep != refr || ds != dr {
                mismatches.push_str(&format!(
                    "  {app}/{kind:?}: sleep {ds:#018x} != reference {dr:#018x}\n"
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "per-SM sleep drifted from the sleep-off reference:\n{mismatches}\
         full sleep-side digest table:\n{table}"
    );
}

#[test]
fn watchdog_armed_sleeping_run_matches_the_reference() {
    // STR spends most of its time stalled on DRAM, so its SMs sleep
    // across hundreds of quiet cycles. A watchdog that mis-read a
    // sleeping SM as a stalled machine would report a hang; with a
    // window well above any real progress gap the run must complete —
    // and identically to the sleep-off path under the same window.
    let mut cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
    cfg.watchdog_cycles = 5_000;
    let run = |cfg: SimConfig| {
        Gpu::new(cfg, build("STR", Scale::Tiny))
            .run()
            .unwrap_or_else(|e| panic!("spurious watchdog report: {e}"))
    };
    assert_eq!(run(cfg), run(sleep_off(cfg)), "watchdog-armed run drifted from reference");
}

#[test]
fn genuine_hangs_fire_at_the_identical_cycle_with_sleep_on_or_off() {
    // A dropped forward packet deadlocks a warp for real. The hang
    // report settles every sleeping SM first, so it must name the same
    // cycle and flow counters as a run that cycled every SM. The
    // reference's audit interval is too long to fire before the hang
    // (a firing audit would catch the lost packet first).
    let report = |audit_interval: u64| {
        let mut cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        cfg.watchdog_cycles = 5_000;
        cfg.audit_interval = audit_interval;
        cfg.fault = Some(FaultConfig::single(FaultKind::Drop, FaultSite::IcntForward, 7));
        let mut gpu = Gpu::new(cfg, build("STR", Scale::Tiny));
        match gpu.run().expect_err("a dropped request must not complete") {
            SimError::Hang(r) => r,
            other => panic!("expected a hang, got {other}"),
        }
    };
    let (sleep, refr) = (report(0), report(1 << 40));
    assert_eq!(sleep.cycle, refr.cycle, "hang detected at a different cycle");
    assert_eq!(sleep.last_progress_cycle, refr.last_progress_cycle);
    assert_eq!(sleep.fetches_sent, refr.fetches_sent);
    assert_eq!(sleep.replies_delivered, refr.replies_delivered);
}

#[test]
fn ticked_cycles_equal_cycles_on_exact_runs_only() {
    // Exact runs step every simulated cycle; sampled runs step only
    // their detailed windows, so fast-forwarded gaps go unticked.
    let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(4);
    let mut gpu = Gpu::new(cfg, build("STR", Scale::Tiny));
    let exact = gpu.run().unwrap();
    assert_eq!(gpu.ticked_cycles(), exact.cycles, "an exact run must tick every cycle");

    let sc = SamplingConfig { detail: 200, skip: 600, warmup: 100, seed: 0 };
    let mut gpu = Gpu::new(cfg.with_sampling(sc), build("STR", Scale::Tiny));
    let sampled = gpu.run().unwrap();
    assert!(
        gpu.ticked_cycles() < sampled.cycles,
        "a sampled run must not tick its fast-forwarded gaps ({} ticked of {})",
        gpu.ticked_cycles(),
        sampled.cycles
    );
}

#[test]
fn oversubscribed_launcher_drains_identically() {
    // One SM and a deep CTA backlog: CTAs stay pending for most of the
    // run while the SM sleeps between events, so every launch scan
    // lands on a sleeping or just-woken SM. The grid must drain with
    // statistics identical to the sleep-off path.
    let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(1);
    let sleep = Gpu::new(cfg, build("KM", Scale::Tiny)).run().unwrap();
    let refr = Gpu::new(sleep_off(cfg), build("KM", Scale::Tiny)).run().unwrap();
    assert!(sleep.completed);
    assert_eq!(sleep, refr, "oversubscribed 1-SM run drifted from reference");
}

#[test]
fn different_geometries_differ_but_reproducibly() {
    // STR's tables overflow a 16 KB L1D even at Tiny scale, so doubling
    // the associativity must change the hit pattern.
    let a16 = {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline).scaled_down(2);
        Gpu::new(cfg, build("STR", Scale::Tiny)).run().unwrap()
    };
    let a32 = {
        let cfg = SimConfig::tesla_m2090(PolicyKind::Baseline)
            .with_l1_geometry(CacheGeometry::fermi_l1d_32k())
            .scaled_down(2);
        Gpu::new(cfg, build("STR", Scale::Tiny)).run().unwrap()
    };
    assert_ne!(a16.l1d.hits, a32.l1d.hits, "more ways must change hit behaviour on STR");
}
