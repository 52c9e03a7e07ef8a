//! Metric definitions and the arithmetic behind them: medians and the
//! percentile rule, the statistics digest, the paper-fidelity gaps, the
//! host-process probes and the result line the benchmark prints.

use gpu_workloads::AppClass;

/// End-to-end metrics, `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. Every workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("kinsn_per_cpu_s", "kinsn/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`, in the order
/// `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.stream_ns_per_op", "ns/op"),
    ("workloads.peak_trace_bytes", "bytes"),
    ("workloads.open_ms", "ms"),
    ("workloads.gen_s", "s"),
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.ns_per_warp_insn", "ns/insn"),
    ("sim.ticked_frac", "ratio"),
    ("sim.ns_per_ticked_cycle", "ns/cycle"),
    ("sim.coalesce_ns_per_op", "ns/op"),
    ("sim.mem_txn_per_insn", "txn/insn"),
    ("sampling.windows", "count"),
    ("sampling.detailed_frac", "ratio"),
    ("sampling.ci_rel_width_max", "ratio"),
    ("l1d.replay_ns_per_access", "ns/access"),
    ("l1d.accesses", "count"),
    ("l1d.hit_rate", "ratio"),
    ("l1d.bypass_frac", "ratio"),
    ("l1d.rejected_per_access", "ratio"),
    ("l1d.stall_cycles", "cycles"),
    ("l1d.dirty_evictions", "count"),
    ("policy.vta_hits", "count"),
    ("policy.protected_bypasses", "count"),
    ("policy.pd_changes", "count"),
    ("fidelity.ci_gain_gap_pp", "pp"),
    ("fidelity.gp_margin_gap_pp", "pp"),
    ("fidelity.cs_worst_loss_pct", "%"),
    ("l2.replay_ns_per_touch", "ns/touch"),
    ("l2.accesses", "count"),
    ("l2.hit_rate", "ratio"),
    ("icnt.fwd_flits", "count"),
    ("icnt.ret_flits", "count"),
    ("icnt.rejects", "count"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("harness.job_ms_p50", "ms"),
    ("harness.job_ms_max", "ms"),
    ("harness.worker_busy_frac", "ratio"),
    ("estimate.summarize_ms", "ms"),
    ("trace.overhead_s", "s"),
];

/// The paper's headline numbers (DESIGN.md §1): DLP's IPC gain on the
/// cache-insufficient apps, Global-Protection's gain on the same apps,
/// and the bound on DLP's loss on the cache-sufficient apps, all in
/// percent over the 16 KB baseline.
pub const PAPER_DLP_CI_GAIN_PCT: f64 = 43.8;
/// See [`PAPER_DLP_CI_GAIN_PCT`].
pub const PAPER_GP_CI_GAIN_PCT: f64 = 34.7;
/// See [`PAPER_DLP_CI_GAIN_PCT`].
pub const PAPER_CS_LOSS_BOUND_PCT: f64 = 3.0;

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub(crate) fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `xs`; `None` when
/// empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = nearest_rank(v.len(), p)?;
    Some(v[rank - 1])
}

fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    Some(((p / 100.0 * n as f64).ceil() as usize).clamp(1, n))
}

/// The tail percentiles a timing may be reported at.
const TAIL_PERCENTILES: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten of `n`
/// samples beyond it, or `None` when even the median would not.
pub fn reportable_tail(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| nearest_rank(n, p).is_some_and(|rank| n - rank >= 10))
}

/// FNV-1a over `bytes` — the same fingerprint `tests/determinism.rs`
/// pins the figure-10 sweep with.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// One job's outcome, as far as the fidelity metrics need it.
#[derive(Clone, Debug, PartialEq)]
pub struct JobIpc {
    /// Application abbreviation.
    pub app: String,
    /// CS/CI class of the application.
    pub class: AppClass,
    /// Scheme label (`PolicyKind::label` or `32KB`).
    pub label: String,
    /// Thread instructions per cycle.
    pub ipc: f64,
}

fn geomean_gain(jobs: &[JobIpc], class: AppClass, label: &str) -> Option<f64> {
    let base = dlp_core::PolicyKind::Baseline.label();
    let ratios: Vec<f64> = jobs
        .iter()
        .filter(|j| j.class == class && j.label == label)
        .filter_map(|j| {
            let b = jobs.iter().find(|b| b.app == j.app && b.label == base)?;
            (b.ipc > 0.0).then(|| j.ipc / b.ipc)
        })
        .collect();
    dlp_bench::geomean(&ratios)
}

/// |DLP's geomean IPC gain over the CI jobs − the paper's 43.8 %|, in
/// percentage points.
pub fn ci_gain_gap_pp(jobs: &[JobIpc]) -> Option<f64> {
    let dlp = geomean_gain(jobs, AppClass::CI, dlp_core::PolicyKind::Dlp.label())?;
    Some((100.0 * (dlp - 1.0) - PAPER_DLP_CI_GAIN_PCT).abs())
}

/// |(DLP − Global-Protection) geomean CI gain − the paper's 9.1
/// points|, in percentage points.
pub fn gp_margin_gap_pp(jobs: &[JobIpc]) -> Option<f64> {
    let dlp = geomean_gain(jobs, AppClass::CI, dlp_core::PolicyKind::Dlp.label())?;
    let gp = geomean_gain(
        jobs,
        AppClass::CI,
        dlp_core::PolicyKind::GlobalProtection.label(),
    )?;
    let paper_margin = PAPER_DLP_CI_GAIN_PCT - PAPER_GP_CI_GAIN_PCT;
    Some((100.0 * (dlp - gp) - paper_margin).abs())
}

/// The worst DLP IPC loss against the baseline on any CS job, in
/// percent (negative when DLP speeds every CS job up); `None` when the
/// workload has no CS job.
pub fn cs_worst_loss_pct(jobs: &[JobIpc]) -> Option<f64> {
    let base = dlp_core::PolicyKind::Baseline.label();
    jobs.iter()
        .filter(|j| j.class == AppClass::CS && j.label == dlp_core::PolicyKind::Dlp.label())
        .filter_map(|j| {
            let b = jobs.iter().find(|b| b.app == j.app && b.label == base)?;
            Some(100.0 * (1.0 - j.ipc / b.ipc))
        })
        .reduce(f64::max)
}

/// CPU seconds (user + system, all threads) this process has used,
/// from `/proc/self/stat` in clock ticks of `USER_HZ` = 100.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and the named metrics with their units. Non-finite values
/// cannot be written as JSON numbers and are rendered as 0 after a
/// warning on stderr.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let v = if value.is_finite() {
                *value
            } else {
                eprintln!("perfbench: metric {name} is not finite ({value}); reported as 0");
                0.0
            };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_metric_name("_leading"));
        assert!(!valid_metric_name("has space"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(
            text.matches("\"unit\"").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    #[test]
    fn percentile_rule_keeps_ten_samples_beyond() {
        assert_eq!(reportable_tail(19), None);
        assert_eq!(reportable_tail(20), Some(50.0));
        assert_eq!(reportable_tail(40), Some(75.0));
        assert_eq!(reportable_tail(90), Some(75.0));
        assert_eq!(reportable_tail(100), Some(90.0));
        assert_eq!(reportable_tail(200), Some(95.0));
        assert_eq!(reportable_tail(1000), Some(99.0));
        for n in 1..2000 {
            if let Some(p) = reportable_tail(n) {
                assert!(n - nearest_rank(n, p).unwrap() >= 10, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
    }

    #[test]
    fn fidelity_gaps_follow_their_definitions() {
        let job = |app: &str, class, label: &str, ipc| JobIpc {
            app: app.into(),
            class,
            label: label.into(),
            ipc,
        };
        let (base, gp, dlp) = ("16KB(Baseline)", "Global-Protection", "DLP");
        let jobs = vec![
            job("A", AppClass::CI, base, 1.0),
            job("A", AppClass::CI, gp, 1.1),
            job("A", AppClass::CI, dlp, 1.2),
            job("B", AppClass::CI, base, 2.0),
            job("B", AppClass::CI, gp, 2.2),
            job("B", AppClass::CI, dlp, 2.4),
            job("C", AppClass::CS, base, 1.0),
            job("C", AppClass::CS, dlp, 0.98),
        ];
        assert!((ci_gain_gap_pp(&jobs).unwrap() - 23.8).abs() < 1e-9);
        assert!((gp_margin_gap_pp(&jobs).unwrap() - 0.9).abs() < 1e-9);
        assert!((cs_worst_loss_pct(&jobs).unwrap() - 2.0).abs() < 1e-9);
        assert_eq!(cs_worst_loss_pct(&jobs[..6]), None);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(
            true,
            3,
            0,
            &[("wall_s", "s", 1.5), ("x.y", "ns/op", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"x.y\": {\"value\": 0.0, \"unit\": \"ns/op\"}}}"
        );
    }

    #[test]
    fn proc_probes_read_this_process() {
        assert!(process_cpu_s().is_some());
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
