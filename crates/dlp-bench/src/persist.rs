//! Persistence of completed runs: the bridge between the in-memory
//! run cache and the `dlp-store` crash-safe on-disk store.
//!
//! The store is keyed by `(config digest, code digest)`:
//!
//! * the **config digest** fingerprints the full `(app, ExperimentConfig)`
//!   pair — two equal digests mean the simulator would produce
//!   byte-identical statistics (it is deterministic);
//! * the **code digest** ties every entry to the fidelity generation
//!   that produced it: the golden statistics digest the determinism
//!   suite pins, XORed with this module's codec version. A fidelity
//!   change or a codec change silently invalidates the whole store —
//!   stale entries simply stop matching and are recomputed.
//!
//! The payload codec is hand-rolled little-endian (the workspace has
//! no serialization dependency): every field of [`AppRun`] worth
//! keeping is written explicitly, and `decode_run` re-validates as it
//! reads. A decode failure is treated as a miss, never an error — the
//! simulator is always able to recompute.
//!
//! Env hooks (read once per process, like `DLP_FORCE_FAIL`):
//!
//! * `DLP_STORE_DIR` — root directory of the store; unset = no
//!   persistence (the in-memory cache still works).
//! * `DLP_STORE_FAULT` — seeded write-path fault campaign,
//!   `<kind>[:<seed>[:<rate_ppm>[:<max_faults>]]]` (see
//!   [`StoreFaultConfig::parse`]).

use crate::estimate::{Estimate, SamplingSummary};
use crate::harness::{AppRun, ExperimentConfig};
use dlp_store::{fnv1a, Store, StoreCounters, StoreFaultConfig, StoreKey};
use gpu_sim::RunStats;
use parking_lot::Mutex;
use rd_tools::{RdProfiler, RddHistogram};
use std::path::Path;
use std::sync::OnceLock;

/// Environment variable naming the store's root directory.
pub const STORE_DIR_ENV: &str = "DLP_STORE_DIR";
/// Environment variable enabling write-path fault injection.
pub const STORE_FAULT_ENV: &str = "DLP_STORE_FAULT";

/// Version of the payload codec below. Bump on any layout change —
/// the bump rolls [`code_digest`] and orphans every existing entry.
/// v2: sampling config in configs, sampling summary in runs.
/// v3: `Scale::Scaled` config tag; observability stats (insn-id wraps,
/// PDPT evict pressure, peak warp-trace residency) in runs.
/// v4: layout unchanged; retires sampled-run entries, whose statistics
/// moved when sampled detailed windows began stepping every cycle (the
/// exact-run digest below did not move, so it could not retire them).
const CODEC_VERSION: u64 = 4;

/// The golden fidelity digest pinned by
/// `tests/determinism.rs::fig10_policy_suite_digest_is_golden`. Any
/// simulator change that moves the statistics moves this constant (the
/// test forces the update), which in turn retires all stored results
/// computed by the previous generation.
const FIDELITY_DIGEST: u64 = 0x4e25_bd31_86d4_d866;

/// The code half of every [`StoreKey`] this build writes.
pub fn code_digest() -> u64 {
    FIDELITY_DIGEST ^ CODEC_VERSION
}

/// The config half of the key: FNV-1a over the app abbreviation and
/// the `Debug` rendering of the full configuration (which covers every
/// field, including protection overrides and warp limits).
pub fn config_digest(abbr: &str, cfg: &ExperimentConfig) -> u64 {
    fnv1a(format!("{abbr}|{cfg:?}").as_bytes())
}

/// The store key for one job.
pub fn store_key(abbr: &str, cfg: &ExperimentConfig) -> StoreKey {
    StoreKey { config: config_digest(abbr, cfg), code: code_digest() }
}

enum StoreState {
    /// No store configured: persistence is a no-op.
    Off,
    On(Mutex<Store>),
    /// The store directory was configured but could not be opened (or a
    /// fault spec failed to parse). Remembered so `figures` can report
    /// "store poisoned" instead of limping along without persistence.
    Poisoned(String),
}

fn store_cell() -> &'static OnceLock<StoreState> {
    static STORE: OnceLock<StoreState> = OnceLock::new();
    &STORE
}

fn open_store(dir: &Path, fault_spec: Option<&str>) -> StoreState {
    let fault = match fault_spec {
        None => None,
        Some(spec) => match StoreFaultConfig::parse(spec) {
            Ok(cfg) => Some(cfg),
            Err(e) => return StoreState::Poisoned(format!("{STORE_FAULT_ENV}: {e}")),
        },
    };
    match Store::open_with_faults(dir, fault) {
        Ok(s) => StoreState::On(Mutex::new(s)),
        Err(e) => StoreState::Poisoned(e.to_string()),
    }
}

/// The lazily-initialized store state: `DLP_STORE_DIR` /
/// `DLP_STORE_FAULT` are read once.
fn store_state() -> &'static StoreState {
    store_cell().get_or_init(|| match std::env::var(STORE_DIR_ENV) {
        Ok(dir) if !dir.is_empty() => {
            let fault = std::env::var(STORE_FAULT_ENV).ok();
            open_store(Path::new(&dir), fault.as_deref())
        }
        _ => StoreState::Off,
    })
}

/// The poison message, if the configured store failed to open.
pub fn store_poisoned() -> Option<String> {
    match store_state() {
        StoreState::Poisoned(e) => Some(e.clone()),
        _ => None,
    }
}

/// Health counters of the active store, if any.
pub fn store_counters() -> Option<StoreCounters> {
    match store_state() {
        StoreState::On(s) => Some(s.lock().counters()),
        _ => None,
    }
}

/// Fetch a completed run from the store. `None` on: no store, miss,
/// quarantined corruption, decode failure, or store IO error (reads
/// must never make a recomputable job fail).
pub fn load(abbr: &str, cfg: &ExperimentConfig) -> Option<AppRun> {
    let StoreState::On(store) = store_state() else { return None };
    let bytes = match store.lock().get(&store_key(abbr, cfg)) {
        Ok(b) => b?,
        Err(e) => {
            eprintln!("warning: {e}");
            return None;
        }
    };
    decode_run(abbr, &bytes)
}

/// Persist a completed run. Failures are reported but never propagated:
/// a job that simulated successfully has succeeded, whatever the disk
/// thinks.
pub fn save(abbr: &str, cfg: &ExperimentConfig, run: &AppRun) {
    let StoreState::On(store) = store_state() else { return };
    let payload = encode_run(abbr, run);
    if let Err(e) = store.lock().put(&store_key(abbr, cfg), &payload) {
        eprintln!("warning: {e}");
    }
}

// ---------------------------------------------------------------------
// Codec. Little-endian u64s throughout; strings as length + UTF-8.
// ---------------------------------------------------------------------

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over an encoded payload; every read is bounds-checked so a
/// truncated or foreign payload decodes to `None`, never panics.
struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self) -> Option<u64> {
        let end = self.at.checked_add(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(self.bytes.get(self.at..end)?);
        self.at = end;
        Some(u64::from_le_bytes(b))
    }

    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    fn flag(&mut self) -> Option<bool> {
        match self.u64()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }

    fn str(&mut self) -> Option<String> {
        let len = self.usize()?;
        let end = self.at.checked_add(len)?;
        let s = std::str::from_utf8(self.bytes.get(self.at..end)?).ok()?;
        self.at = end;
        Some(s.to_string())
    }

    fn done(&self) -> bool {
        self.at == self.bytes.len()
    }
}

fn encode_stats(out: &mut Vec<u8>, s: &RunStats) {
    push_u64(out, s.cycles);
    push_u64(out, s.thread_insns);
    push_u64(out, s.warp_insns);
    push_u64(out, s.mem_transactions);
    push_u64(out, s.completed as u64);
    for cache in [&s.l1d, &s.l2] {
        push_u64(out, cache.accesses);
        push_u64(out, cache.hits);
        push_u64(out, cache.misses_allocated);
        push_u64(out, cache.mshr_merges);
        push_u64(out, cache.bypassed_loads);
        push_u64(out, cache.bypass_fetches);
        push_u64(out, cache.bypassed_stores);
        push_u64(out, cache.evictions);
        push_u64(out, cache.dirty_evictions);
        push_u64(out, cache.compulsory_misses);
        push_u64(out, cache.stall_cycles);
        push_u64(out, cache.rejected_submits);
        push_u64(out, cache.stall_merge_full);
        push_u64(out, cache.stall_mshr_full);
        push_u64(out, cache.stall_miss_queue);
        push_u64(out, cache.stall_all_reserved);
        push_u64(out, cache.load_latency_sum);
        push_u64(out, cache.load_count);
    }
    push_u64(out, s.policy.queries);
    push_u64(out, s.policy.protected_bypasses);
    push_u64(out, s.policy.vta_hits);
    push_u64(out, s.policy.vta_insertions);
    push_u64(out, s.policy.vta_reinserted);
    push_u64(out, s.policy.samples);
    push_u64(out, s.policy.pd_increases);
    push_u64(out, s.policy.pd_decreases);
    push_u64(out, s.policy.mean_pd_milli_sum);
    push_u64(out, s.icnt.fwd_flits);
    push_u64(out, s.icnt.ret_flits);
    push_u64(out, s.icnt.rejects);
    push_u64(out, s.dram.reads);
    push_u64(out, s.dram.writes);
    push_u64(out, s.dram.row_hits);
    push_u64(out, s.dram.row_misses);
    push_u64(out, s.insn_id_wraps);
    push_u64(out, s.pdpt_evict_pressure);
    push_u64(out, s.peak_warp_trace_bytes);
}

fn decode_stats(c: &mut Cursor) -> Option<RunStats> {
    let mut s = RunStats {
        cycles: c.u64()?,
        thread_insns: c.u64()?,
        warp_insns: c.u64()?,
        mem_transactions: c.u64()?,
        completed: c.flag()?,
        ..Default::default()
    };
    for cache in [&mut s.l1d, &mut s.l2] {
        cache.accesses = c.u64()?;
        cache.hits = c.u64()?;
        cache.misses_allocated = c.u64()?;
        cache.mshr_merges = c.u64()?;
        cache.bypassed_loads = c.u64()?;
        cache.bypass_fetches = c.u64()?;
        cache.bypassed_stores = c.u64()?;
        cache.evictions = c.u64()?;
        cache.dirty_evictions = c.u64()?;
        cache.compulsory_misses = c.u64()?;
        cache.stall_cycles = c.u64()?;
        cache.rejected_submits = c.u64()?;
        cache.stall_merge_full = c.u64()?;
        cache.stall_mshr_full = c.u64()?;
        cache.stall_miss_queue = c.u64()?;
        cache.stall_all_reserved = c.u64()?;
        cache.load_latency_sum = c.u64()?;
        cache.load_count = c.u64()?;
    }
    s.policy.queries = c.u64()?;
    s.policy.protected_bypasses = c.u64()?;
    s.policy.vta_hits = c.u64()?;
    s.policy.vta_insertions = c.u64()?;
    s.policy.vta_reinserted = c.u64()?;
    s.policy.samples = c.u64()?;
    s.policy.pd_increases = c.u64()?;
    s.policy.pd_decreases = c.u64()?;
    s.policy.mean_pd_milli_sum = c.u64()?;
    s.icnt.fwd_flits = c.u64()?;
    s.icnt.ret_flits = c.u64()?;
    s.icnt.rejects = c.u64()?;
    s.dram.reads = c.u64()?;
    s.dram.writes = c.u64()?;
    s.dram.row_hits = c.u64()?;
    s.dram.row_misses = c.u64()?;
    s.insn_id_wraps = c.u64()?;
    s.pdpt_evict_pressure = c.u64()?;
    s.peak_warp_trace_bytes = c.u64()?;
    Some(s)
}

/// Floats travel as their IEEE-754 bit pattern: `to_bits`/`from_bits`
/// is exact and byte-deterministic, unlike any decimal rendering.
fn push_f64(out: &mut Vec<u8>, v: f64) {
    push_u64(out, v.to_bits());
}

fn push_estimate(out: &mut Vec<u8>, e: &Option<Estimate>) {
    match e {
        None => push_u64(out, 0),
        Some(e) => {
            push_u64(out, 1);
            push_f64(out, e.mean);
            push_f64(out, e.half);
        }
    }
}

fn decode_estimate(c: &mut Cursor) -> Option<Option<Estimate>> {
    if c.flag()? {
        Some(Some(Estimate { mean: f64::from_bits(c.u64()?), half: f64::from_bits(c.u64()?) }))
    } else {
        Some(None)
    }
}

fn push_sampling_summary(out: &mut Vec<u8>, s: &SamplingSummary) {
    push_u64(out, s.windows);
    push_u64(out, s.detailed_cycles);
    push_u64(out, s.ff_cycles);
    push_u64(out, s.ff_insns);
    for e in [&s.ipc, &s.mpki, &s.hit_rate, &s.flits_per_kinsn] {
        push_estimate(out, e);
    }
}

fn decode_sampling_summary(c: &mut Cursor) -> Option<SamplingSummary> {
    Some(SamplingSummary {
        windows: c.u64()?,
        detailed_cycles: c.u64()?,
        ff_cycles: c.u64()?,
        ff_insns: c.u64()?,
        ipc: decode_estimate(c)?,
        mpki: decode_estimate(c)?,
        hit_rate: decode_estimate(c)?,
        flits_per_kinsn: decode_estimate(c)?,
    })
}

fn push_histogram(out: &mut Vec<u8>, h: &RddHistogram) {
    for v in h.counts() {
        push_u64(out, v);
    }
    push_u64(out, h.compulsory);
}

fn decode_histogram(c: &mut Cursor) -> Option<RddHistogram> {
    let counts = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
    Some(RddHistogram::from_parts(counts, c.u64()?))
}

/// Encode one completed run (the store payload / wire result form).
pub fn encode_run(abbr: &str, run: &AppRun) -> Vec<u8> {
    let mut out = Vec::with_capacity(1024);
    push_str(&mut out, abbr);
    encode_stats(&mut out, &run.stats);
    push_u64(&mut out, run.ticked_cycles);
    match &run.rdd {
        None => push_u64(&mut out, 0),
        Some(sink) => {
            push_u64(&mut out, 1);
            let prof = sink.lock();
            push_histogram(&mut out, &prof.overall);
            // Deterministic bytes: per-PC entries in sorted PC order.
            let mut pcs: Vec<u32> = prof.per_pc.keys().copied().collect();
            pcs.sort_unstable();
            push_u64(&mut out, pcs.len() as u64);
            for pc in pcs {
                push_u64(&mut out, pc as u64);
                push_histogram(&mut out, &prof.per_pc[&pc]);
            }
        }
    }
    match &run.sampling {
        None => push_u64(&mut out, 0),
        Some(s) => {
            push_u64(&mut out, 1);
            push_sampling_summary(&mut out, s);
        }
    }
    out
}

/// Decode [`encode_run`]'s output, re-deriving the benchmark spec from
/// the registry. `None` on malformation or if the payload's app does
/// not match `abbr` (a misfiled entry must read as a miss).
pub fn decode_run(abbr: &str, bytes: &[u8]) -> Option<AppRun> {
    let mut c = Cursor { bytes, at: 0 };
    if c.str()? != abbr {
        return None;
    }
    let spec = gpu_workloads::registry().into_iter().find(|s| s.abbr == abbr)?;
    let stats = decode_stats(&mut c)?;
    let ticked_cycles = c.u64()?;
    let rdd = if c.flag()? {
        let sink = RdProfiler::new_sink();
        {
            let mut prof = sink.lock();
            prof.overall = decode_histogram(&mut c)?;
            let n = c.usize()?;
            for _ in 0..n {
                let pc = u32::try_from(c.u64()?).ok()?;
                prof.per_pc.insert(pc, decode_histogram(&mut c)?);
            }
        }
        Some(sink)
    } else {
        None
    };
    let sampling = if c.flag()? { Some(decode_sampling_summary(&mut c)?) } else { None };
    c.done().then_some(AppRun { spec, stats, ticked_cycles, rdd, sampling })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_app;
    use dlp_core::PolicyKind;
    use gpu_sim::SamplingConfig;
    use gpu_workloads::Scale;

    fn sample_cfg() -> ExperimentConfig {
        ExperimentConfig {
            scale: Scale::Tiny,
            profile_rd: true,
            ..ExperimentConfig::baseline().with_policy(PolicyKind::Dlp)
        }
    }

    #[test]
    fn run_roundtrips_through_codec() {
        let cfg = sample_cfg();
        let run = run_app("SS", cfg).unwrap();
        let enc = encode_run("SS", &run);
        let dec = decode_run("SS", &enc).expect("decodes");
        assert_eq!(dec.stats, run.stats);
        assert_eq!(dec.ticked_cycles, run.ticked_cycles);
        assert_eq!(dec.spec.abbr, "SS");
        let (a, b) = (run.rdd.unwrap(), dec.rdd.unwrap());
        let (a, b) = (a.lock(), b.lock());
        assert_eq!(a.overall, b.overall);
        assert_eq!(a.per_pc.len(), b.per_pc.len());
        for (pc, h) in &a.per_pc {
            assert_eq!(b.per_pc.get(pc), Some(h));
        }
    }

    #[test]
    fn sampled_run_roundtrips_through_codec() {
        let cfg = ExperimentConfig {
            scale: Scale::Tiny,
            sampling: Some(SamplingConfig { detail: 256, skip: 768, warmup: 128, seed: 1 }),
            ..ExperimentConfig::baseline()
        };
        let run = run_app("KM", cfg).unwrap();
        let summary = run.sampling.expect("sampled run carries estimates");
        let enc = encode_run("KM", &run);
        let dec = decode_run("KM", &enc).expect("decodes");
        assert_eq!(dec.sampling, Some(summary));
        assert_eq!(dec.stats, run.stats);
    }

    #[test]
    fn decode_rejects_mismatched_app_and_mutations() {
        let cfg = ExperimentConfig { scale: Scale::Tiny, ..ExperimentConfig::baseline() };
        let run = run_app("KM", cfg).unwrap();
        let enc = encode_run("KM", &run);
        assert!(decode_run("MM", &enc).is_none(), "wrong app must not decode");
        assert!(decode_run("KM", &enc[..enc.len() - 1]).is_none(), "truncation");
        let mut extended = enc.clone();
        extended.push(0);
        assert!(decode_run("KM", &extended).is_none(), "trailing garbage");
    }

    #[test]
    fn encoded_run_bytes_are_deterministic() {
        let cfg = sample_cfg();
        let run = run_app("MM", cfg).unwrap();
        assert_eq!(encode_run("MM", &run), encode_run("MM", &run));
    }

    #[test]
    fn digests_separate_configs_and_generations() {
        let base = ExperimentConfig::baseline();
        let other = ExperimentConfig::baseline().with_policy(PolicyKind::Dlp);
        assert_ne!(config_digest("KM", &base), config_digest("KM", &other));
        assert_ne!(config_digest("KM", &base), config_digest("MM", &base));
        assert_eq!(store_key("KM", &base).code, code_digest());
    }
}
