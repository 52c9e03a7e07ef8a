//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The parent process measures nothing itself: every sweep, set-up
//! measurement and traced run happens in a fresh child process (this
//! same binary, `perfbench child ...`) started with an explicit
//! environment, so no run cache, store, scale or sampling setting leaks
//! between measurements. The parent aggregates what the children print,
//! checks the outputs, prints a readable report and, as its last line,
//! the JSON result. It exits 1 when an output check fails.

use perfbench::report::{self, JobIpc, END_TO_END, PER_LAYER};
use perfbench::spans;
use perfbench::traced::{layer_metrics, run_traced};
use perfbench::workload::{self, jobs, Workload, FIG10_DIGEST};
use perfbench::writemix::{write_trace, WriteMix};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
    spans_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kv: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k}: missing value"))?;
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| {
        kv.get(k)
            .copied()
            .ok_or_else(|| format!("--{k} is required"))
    };
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {workload:?} (one of {})",
                names.join(", ")
            )
        })?,
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: kv
            .get("seconds")
            .map_or(Ok(40.0), |s| s.parse())
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match kv.get("trace").copied().unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
        },
        trace_file: kv.get("trace-file").map(PathBuf::from),
        spans_out: kv.get("spans-out").map(PathBuf::from),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (child, rest) = match argv.first().map(String::as_str) {
        Some("child") => (argv.get(1).cloned(), &argv[2.min(argv.len())..]),
        _ => (None, &argv[..]),
    };
    let args = match parse_args(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match child.as_deref() {
        None => parent(&args),
        Some("sweep") => child_sweep(&args),
        Some("setup") => child_setup(&args),
        Some("traced") => child_traced(&args),
        Some(other) => {
            eprintln!("perfbench: unknown child mode {other:?}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------- children

fn fail_child(e: String) -> ExitCode {
    println!("problem {e}");
    ExitCode::from(1)
}

fn child_sweep(a: &Args) -> ExitCode {
    let jobs = match jobs(a.workload) {
        Ok(j) => j,
        Err(e) => return fail_child(e),
    };
    let sweep = workload::run_sweep(
        a.workload,
        &jobs,
        a.trace_file.as_deref(),
        a.workload.workers(),
    );
    let cpu_s = report::process_cpu_s().unwrap_or(f64::NAN);
    let rss_mb = report::peak_rss_mb().unwrap_or(f64::NAN);
    let stats: Vec<_> = sweep
        .results
        .iter()
        .map(|r| r.as_ref().ok().map(|j| &j.stats))
        .collect();
    let digest = workload::digest(&jobs, &stats).map_or("none".into(), |d| format!("{d:#018x}"));
    let warp_insns: u64 = stats.iter().flatten().map(|s| s.warp_insns).sum();
    println!(
        "sweep wall_s={} cpu_s={cpu_s} rss_mb={rss_mb} workers={} digest={digest} warp_insns={warp_insns}",
        sweep.wall_s,
        a.workload.workers()
    );
    for (j, r) in jobs.iter().zip(&sweep.results) {
        match r {
            Ok(r) => println!(
                "job app={} label={} class={:?} ipc={} wall_ms={} ci_rel_width={}",
                j.app,
                j.label,
                j.class,
                r.stats.ipc(),
                r.wall_ms,
                r.sampling.map_or(0.0, |s| s.ci_rel_width())
            ),
            Err(e) => println!("problem {e}"),
        }
    }
    for p in &sweep.problems {
        println!("problem {p}");
    }
    ExitCode::SUCCESS
}

/// Set-up repetitions: at least [`SETUP_MIN_REPS`], more while they fit
/// in [`SETUP_BUDGET_S`], the median reported.
const SETUP_MIN_REPS: usize = 11;
const SETUP_MAX_REPS: usize = 301;
const SETUP_BUDGET_S: f64 = 1.5;

fn child_setup(a: &Args) -> ExitCode {
    let jobs = match jobs(a.workload) {
        Ok(j) => j,
        Err(e) => return fail_child(e),
    };
    let trace = a.trace_file.as_deref();
    let start = Instant::now();
    let mut reps = 0;
    while reps < SETUP_MIN_REPS
        || (reps < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        match workload::setup_once(&jobs, trace) {
            Ok(s) => println!("setup rep_s={s}"),
            Err(e) => return fail_child(e),
        }
        reps += 1;
    }
    match workload::stream_insns(&jobs, trace) {
        Ok(n) => println!("insns n={n}"),
        Err(e) => return fail_child(e),
    }
    ExitCode::SUCCESS
}

fn child_traced(a: &Args) -> ExitCode {
    let jobs = match jobs(a.workload) {
        Ok(j) => j,
        Err(e) => return fail_child(e),
    };
    let sweep = run_traced(&jobs, a.trace_file.as_deref(), a.workload.workers());
    if let Some(path) = &a.spans_out {
        match std::fs::write(path, spans::to_json(&sweep.spans)) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                sweep.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let ok: Vec<_> = sweep
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .collect();
    let stats: Vec<_> = sweep
        .results
        .iter()
        .map(|r| r.as_ref().ok().map(|j| &j.stats))
        .collect();
    let digest = workload::digest(&jobs, &stats).map_or("none".into(), |d| format!("{d:#018x}"));
    println!("traced wall_s={} digest={digest}", sweep.wall_s);
    for (j, r) in jobs.iter().zip(&sweep.results) {
        match r {
            Ok(_) => println!("job app={} label={}", j.app, j.label),
            Err(e) => println!("problem {e}"),
        }
    }
    if ok.len() == jobs.len() {
        for (name, v) in layer_metrics(&sweep, &ok) {
            println!("metric {name} {v}");
        }
    }
    ExitCode::SUCCESS
}

// ------------------------------------------------------------------ parent

/// What a child printed, parsed.
#[derive(Default)]
struct ChildOut {
    /// `kind` → the `key=value` fields of each line of that kind.
    lines: Vec<(String, HashMap<String, String>)>,
    /// `metric <name> <value>` lines.
    metrics: Vec<(String, f64)>,
    problems: Vec<String>,
}

impl ChildOut {
    fn first(&self, kind: &str) -> Option<&HashMap<String, String>> {
        self.lines.iter().find(|(k, _)| k == kind).map(|(_, f)| f)
    }

    fn all<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a HashMap<String, String>> + 'a {
        self.lines
            .iter()
            .filter(move |(k, _)| k == kind)
            .map(|(_, f)| f)
    }
}

fn num(fields: Option<&HashMap<String, String>>, key: &str) -> f64 {
    fields
        .and_then(|f| f.get(key))
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Run `perfbench child <mode>` for the workload in a fresh process
/// with an explicit environment, wait for it and parse its output.
fn run_child(mode: &str, a: &Args, extra: &[(&str, &Path)]) -> ChildOut {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        mode,
        "--workload",
        a.workload.name(),
        "--seed",
        &a.seed.to_string(),
    ]);
    for (k, v) in extra {
        cmd.arg(format!("--{k}")).arg(v);
    }
    cmd.env_clear()
        .env(dlp_bench::harness::SHARDS_ENV, "1")
        .env(
            dlp_bench::harness::WORKERS_ENV,
            a.workload.workers().to_string(),
        )
        .envs(a.workload.env(a.seed));
    let mut out = ChildOut::default();
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            out.problems
                .push(format!("child {mode}: cannot start: {e}"));
            return out;
        }
    };
    if !output.status.success() {
        out.problems
            .push(format!("child {mode}: exited with {}", output.status));
    }
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let (kind, rest) = line.split_once(' ').unwrap_or((line, ""));
        match kind {
            "problem" => out.problems.push(rest.to_string()),
            "metric" => match rest.split_once(' ').map(|(n, v)| (n, v.parse::<f64>())) {
                Some((n, Ok(v))) => out.metrics.push((n.to_string(), v)),
                _ => out
                    .problems
                    .push(format!("child {mode}: bad metric line {line:?}")),
            },
            _ => {
                let fields = rest
                    .split_whitespace()
                    .filter_map(|t| t.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                out.lines.push((kind.to_string(), fields));
            }
        }
    }
    out
}

/// Removes the benchmark's scratch directory when the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The build directory's output area, inside the checkout.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    exe.parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
        .join("perfbench-out")
}

fn jobs_of(sweep: &ChildOut) -> Vec<JobIpc> {
    sweep
        .all("job")
        .map(|f| JobIpc {
            app: f.get("app").cloned().unwrap_or_default(),
            class: if f.get("class").map(String::as_str) == Some("CS") {
                gpu_workloads::AppClass::CS
            } else {
                gpu_workloads::AppClass::CI
            },
            label: f.get("label").cloned().unwrap_or_default(),
            ipc: f
                .get("ipc")
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN),
        })
        .collect()
}

/// The paper-fidelity gaps of a sweep's jobs: `(name, unit, value,
/// note)`, `None` where the workload lacks the jobs a gap needs.
fn fidelity(jobs: &[JobIpc]) -> [(&'static str, &'static str, Option<f64>, String); 3] {
    [
        (
            "ci_gain_gap_pp",
            "pp",
            report::ci_gain_gap_pp(jobs),
            format!(", paper DLP CI gain {} %", report::PAPER_DLP_CI_GAIN_PCT),
        ),
        (
            "gp_margin_gap_pp",
            "pp",
            report::gp_margin_gap_pp(jobs),
            format!(
                ", paper margin {:.1} points",
                report::PAPER_DLP_CI_GAIN_PCT - report::PAPER_GP_CI_GAIN_PCT
            ),
        ),
        (
            "cs_worst_loss_pct",
            "%",
            report::cs_worst_loss_pct(jobs),
            format!(", paper bound {}", report::PAPER_CS_LOSS_BOUND_PCT),
        ),
    ]
}

/// Per-layer metrics from one untraced and one traced sweep: the traced
/// child's layer metrics plus those the parent derives — the benchmark's
/// trace generation, the untraced sweep's job times, the tracing
/// overhead and the fidelity gaps.
fn pair_metrics(
    plain: &ChildOut,
    traced: &ChildOut,
    job_ms: &[f64],
    gen_s: f64,
) -> HashMap<String, f64> {
    let wall_u = num(plain.first("sweep"), "wall_s");
    let wall_t = num(traced.first("traced"), "wall_s");
    let workers = num(plain.first("sweep"), "workers");
    let mut m: HashMap<String, f64> = traced.metrics.iter().cloned().collect();
    m.insert("workloads.gen_s".into(), gen_s);
    m.insert(
        "harness.job_ms_p50".into(),
        report::median(job_ms).unwrap_or(f64::NAN),
    );
    m.insert(
        "harness.job_ms_max".into(),
        job_ms.iter().copied().fold(f64::NAN, f64::max),
    );
    m.insert(
        "harness.worker_busy_frac".into(),
        job_ms.iter().sum::<f64>() / (workers * wall_u * 1e3),
    );
    m.insert("trace.overhead_s".into(), wall_t - wall_u);
    for (name, _, v, _) in fidelity(&jobs_of(plain)) {
        m.insert(format!("fidelity.{name}"), v.unwrap_or(0.0));
    }
    m
}

fn parent(a: &Args) -> ExitCode {
    let run_start = Instant::now();
    let mut problems: Vec<String> = Vec::new();
    let out = out_dir();
    let scratch = ScratchDir(out.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(1);
    }

    // The synthetic trace is the benchmark's own input: generated once
    // per run, timed on its own, outside every end-to-end metric.
    let trace_path = scratch.0.join("writemix.dlpt");
    let mut gen_s = 0.0;
    let mut extra: Vec<(&str, &Path)> = Vec::new();
    if a.workload == Workload::TraceWritemix {
        let t0 = Instant::now();
        if let Err(e) = write_trace(&trace_path, &WriteMix::new(a.seed)) {
            eprintln!("perfbench: cannot write {}: {e}", trace_path.display());
            return ExitCode::from(1);
        }
        gen_s = t0.elapsed().as_secs_f64();
        extra.push(("trace-file", &trace_path));
    }

    let expected_jobs = workload::job_count(a.workload) as u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut count_jobs = |s: &ChildOut| {
        let ok = s.all("job").count() as u64;
        attempted += expected_jobs;
        failed += expected_jobs.saturating_sub(ok);
    };

    let mut digests: Vec<String> = Vec::new();
    let metrics: Vec<(&str, &str, f64)>;
    if !a.trace {
        let setup = run_child("setup", a, &extra);
        problems.extend(setup.problems.iter().cloned());
        let reps: Vec<f64> = setup.all("setup").map(|f| num(Some(f), "rep_s")).collect();
        let insns = num(setup.first("insns"), "n");

        let measure = Instant::now();
        let mut sweeps: Vec<ChildOut> = Vec::new();
        let mut longest = 0.0f64;
        loop {
            let t0 = Instant::now();
            let s = run_child("sweep", a, &extra);
            longest = longest.max(t0.elapsed().as_secs_f64());
            count_jobs(&s);
            problems.extend(s.problems.iter().cloned());
            sweeps.push(s);
            if measure.elapsed().as_secs_f64() + longest > a.seconds || !problems.is_empty() {
                break;
            }
        }
        let field =
            |k: &str| -> Vec<f64> { sweeps.iter().map(|s| num(s.first("sweep"), k)).collect() };
        let walls = field("wall_s");
        let kinsn: Vec<f64> = field("cpu_s").iter().map(|c| insns / 1e3 / c).collect();
        for s in &sweeps {
            let f = s.first("sweep");
            digests.push(f.and_then(|f| f.get("digest")).cloned().unwrap_or_default());
            let simulated = num(f, "warp_insns");
            if a.workload != Workload::ScaleSampled && simulated != insns {
                problems.push(format!(
                    "simulated {simulated} warp instructions, streams hold {insns}"
                ));
            }
        }
        let jobs = jobs_of(&sweeps[0]);
        let med = |v: &[f64]| report::median(v).unwrap_or(f64::NAN);
        let by_name: HashMap<&str, f64> = HashMap::from([
            ("wall_s", med(&walls)),
            ("kinsn_per_cpu_s", med(&kinsn)),
            ("setup_s", med(&reps)),
            ("peak_rss_mb", med(&field("rss_mb"))),
        ]);
        metrics = END_TO_END
            .iter()
            .map(|(name, unit)| (*name, *unit, by_name[name]))
            .collect();
        println!(
            "== perfbench {} seed {} (untraced) ==",
            a.workload.name(),
            a.seed
        );
        println!(
            "sweeps: {} (each a fresh process, {} worker(s)); set-up repetitions: {}",
            sweeps.len(),
            a.workload.workers(),
            reps.len()
        );
        let list = |v: &[f64]| {
            v.iter()
                .map(|x| format!("{x:.3}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("per-sweep wall_s: {}", list(&walls));
        println!("per-sweep kinsn_per_cpu_s: {}", list(&kinsn));
        for (name, unit, v) in &metrics {
            println!("  {name:<18} {v:>14.4} {unit}");
        }
        let ci_width = sweeps[0]
            .all("job")
            .map(|f| num(Some(f), "ci_rel_width"))
            .fold(0.0, f64::max);
        let failed_frac = failed as f64 / attempted.max(1) as f64;
        println!(
            "  {:<18} {failed_frac:>14.4} (failed ÷ attempted jobs)",
            "failed_job_frac"
        );
        for (name, unit, v, note) in fidelity(&jobs) {
            match v {
                Some(v) => println!("  {name:<18} {v:>14.4} {unit} (simulated{note})"),
                None => println!("  {name:<18} {:>14} (not defined on this workload)", "n/a"),
            }
        }
        println!(
            "  {:<18} {ci_width:>14.4} (simulated; widest relative 95% CI, 0 when exact)",
            "ci_rel_width_max"
        );
        if gen_s > 0.0 {
            println!("  trace generation   {gen_s:>14.4} s (in no end-to-end metric)");
        }
    } else {
        // Pairs of one untraced and one traced sweep, while another pair
        // fits in `--seconds`; each per-layer metric is the median over
        // the pairs.
        let spans_path = out.join(format!("spans-{}-seed{}.json", a.workload.name(), a.seed));
        let mut with_spans = extra.clone();
        with_spans.push(("spans-out", &spans_path));
        let measure = Instant::now();
        let mut longest = 0.0f64;
        let mut pairs: Vec<HashMap<String, f64>> = Vec::new();
        let mut job_ms: Vec<f64> = Vec::new();
        loop {
            let t0 = Instant::now();
            let plain = run_child("sweep", a, &extra);
            let traced = run_child("traced", a, &with_spans);
            longest = longest.max(t0.elapsed().as_secs_f64());
            for s in [&plain, &traced] {
                count_jobs(s);
                problems.extend(s.problems.iter().cloned());
            }
            for s in [plain.first("sweep"), traced.first("traced")] {
                digests.push(s.and_then(|f| f.get("digest")).cloned().unwrap_or_default());
            }
            let pair_ms: Vec<f64> = plain.all("job").map(|f| num(Some(f), "wall_ms")).collect();
            pairs.push(pair_metrics(&plain, &traced, &pair_ms, gen_s));
            job_ms.extend(pair_ms);
            if measure.elapsed().as_secs_f64() + longest > a.seconds || !problems.is_empty() {
                break;
            }
        }
        metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let values: Vec<f64> = pairs.iter().filter_map(|p| p.get(*name).copied()).collect();
                if values.len() < pairs.len() {
                    problems.push(format!("per-layer metric {name} missing"));
                }
                (*name, *unit, report::median(&values).unwrap_or(f64::NAN))
            })
            .collect();
        println!(
            "== perfbench {} seed {} (traced) ==",
            a.workload.name(),
            a.seed
        );
        println!(
            "{} pair(s) of an untraced and a traced sweep, each a fresh process; per-layer \
             metrics are medians over the pairs. Replays are isolated-layer costs on each job's \
             own input stream, not self time inside Gpu::run.",
            pairs.len()
        );
        let p50 = report::median(&job_ms).unwrap_or(f64::NAN);
        match report::reportable_tail(job_ms.len()) {
            Some(p) => println!(
                "job wall ms: p50 {p50:.1}, p{p} {:.1} (n={})",
                report::percentile(&job_ms, p).unwrap_or(f64::NAN),
                job_ms.len()
            ),
            None => println!(
                "job wall ms: p50 {p50:.1} (n={}, too few for a tail percentile)",
                job_ms.len()
            ),
        }
        for (name, unit, v) in &metrics {
            println!("  {name:<28} {v:>16.4} {unit}");
        }
        println!("spans of the last traced sweep: {}", spans_path.display());
    }

    // Output checks shared by both modes.
    if digests.iter().any(|d| d.is_empty() || d == "none") {
        problems.push("a sweep produced no statistics digest".into());
    } else if digests.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!(
            "statistics digests differ between sweeps: {digests:?}"
        ));
    } else if a.workload == Workload::Fig10Exact && digests[0] != format!("{FIG10_DIGEST:#018x}") {
        problems.push(format!(
            "fig10-exact statistics digest {} differs from the recorded {FIG10_DIGEST:#018x}",
            digests[0]
        ));
    }
    for p in &problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = problems.is_empty() && failed == 0;
    eprintln!(
        "perfbench: run took {:.1} s",
        run_start.elapsed().as_secs_f64()
    );
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
