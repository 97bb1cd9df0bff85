//! `cheri-perfbench` — the layered benchmark of the CHERI C semantics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|kernels|corpus_batch --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it sets the workload up three times (reporting the
//! median set-up time), then runs it closed loop for `--seconds` and
//! reports the end-to-end metrics. With `--trace 1` it runs the same jobs
//! untraced and traced, replays them through the layers' public
//! functions with a span around each call, counts exact per-layer work
//! twice and checks the two counts agree, and reports the per-layer
//! metrics. Every job's output is checked against a reference that does
//! not come from the interpreter. The last line of standard output is a
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. See
//! `perfbench/README.md`.

mod drive;
mod kernels;
mod phases;
mod stats;
mod trace;
mod work;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use cheri_core::{CheriotCap, MorelloCap};
use cheri_serve::{JobOutput, JobSpec, Mode, ProgramCache, Service};

use drive::{alternating, closed_loop, guarded, service_loop, LoopObs, ServiceObs};
use kernels::CapModel;
use stats::{median, windowed_rate, windowed_tail, TAIL_WINDOWS};
use trace::{summarize, Counters, RootSummary, Tracer};
use work::{
    CorpusProgram, OneShotJob, Reference, Run, Workload, CORPUS_MODES, CORPUS_STRIDE, CORPUS_TIMED,
    CORPUS_WARM,
};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Programs per service pass: each pass is a fresh service whose cache
/// starts cold, as one `--batch` manifest run does (and the cache, which
/// keeps every compiled program, stays small).
const CORPUS_BATCH: usize = 128;
// The replay starts a fresh cache every `CORPUS_BATCH` jobs, so every
// pass must be a whole batch.
#[allow(clippy::cast_possible_truncation)]
const _: () = assert!((CORPUS_TIMED as usize).is_multiple_of(CORPUS_BATCH));
/// Corpus programs in the exact-counter pass.
const CORPUS_COUNTED: u64 = 48;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10u64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Metric name → (value, unit), printed in this order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The outcome of a run.
struct Report {
    attempted: u64,
    failed: Vec<String>,
    metrics: Metrics,
    /// Extra human-readable lines.
    notes: Vec<String>,
}

fn main() {
    drive::install_panic_hook();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cheri-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let report = if args.trace {
        layered(&args, threads)
    } else {
        end_to_end(&args, threads)
    };
    print_report(&args, threads, &report);
}

fn print_report(args: &Args, threads: usize, r: &Report) {
    println!(
        "workload {:?} seed {} seconds {} trace {} threads {threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &r.notes {
        println!("  {line}");
    }
    for (name, value, unit) in &r.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    for f in &r.failed {
        println!("FAILED {f}");
    }
    // A metric that could not be measured fails the run: no number stands
    // in for it.
    let unmeasured: Vec<&str> = r
        .metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(name, _, _)| *name)
        .collect();
    if !unmeasured.is_empty() {
        eprintln!(
            "cheri-perfbench: not measured (not a finite number): {}",
            unmeasured.join(", ")
        );
        std::process::exit(1);
    }
    let mut metrics = String::new();
    for (i, (name, value, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed.is_empty(),
        r.attempted.max(1),
        r.failed.len()
    );
}

/// Peak resident set of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

// ───────────────────────── set-up ─────────────────────────

/// A workload, set up and warmed.
enum Ready {
    OneShot(Vec<OneShotJob>),
    Corpus(Vec<CorpusProgram>),
}

/// Build a workload's inputs and warm it up; warm-up failures are
/// recorded in `failed`.
fn set_up(args: &Args, threads: usize, failed: &mut Vec<String>) -> (Ready, u64) {
    match args.workload {
        Workload::Suite | Workload::Kernels => {
            let jobs = if args.workload == Workload::Suite {
                work::suite_jobs(args.seed)
            } else {
                work::kernel_jobs(args.seed)
            };
            for job in &jobs {
                if let Err(e) = guarded(&job.id, || job.run()) {
                    failed.push(format!("warm-up {e}"));
                }
            }
            let n = jobs.len() as u64;
            (Ready::OneShot(jobs), n)
        }
        Workload::CorpusBatch => {
            let base = args.seed.wrapping_mul(CORPUS_STRIDE);
            let warm = work::corpus_programs(base, CORPUS_WARM);
            let timed = work::corpus_programs(base + CORPUS_WARM, CORPUS_TIMED);
            let obs = run_corpus_passes(&warm, threads, None);
            failed.extend(obs.failed.into_iter().map(|e| format!("warm-up {e}")));
            (Ready::Corpus(timed), obs.attempted)
        }
    }
}

/// Corpus passes: for each batch of [`CORPUS_BATCH`] programs, an
/// `engine-diff` pass and then a `lint-check` pass, each through a fresh
/// service whose cache starts cold, as CI runs its two manifests in two
/// `--batch` processes. Without a deadline the programs run once; with
/// one, the batches are cycled over until it passes.
fn run_corpus_passes(
    programs: &[CorpusProgram],
    threads: usize,
    deadline: Option<Instant>,
) -> ServiceObs {
    let start = Instant::now();
    let mut obs = ServiceObs::default();
    'run: loop {
        for batch in programs.chunks(CORPUS_BATCH) {
            for mode in CORPUS_MODES {
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break 'run;
                }
                let mut specs = batch.iter().map(|p| work::corpus_spec(p, mode));
                obs.merge(service_loop(
                    &mut Service::<MorelloCap>::new(threads),
                    &mut specs,
                    2 * threads,
                    threads,
                    start,
                    deadline,
                    &|i, out| work::check_corpus_output(out, batch[i].oracle),
                ));
            }
        }
        if deadline.is_none() {
            break;
        }
    }
    obs.elapsed_s = start.elapsed().as_secs_f64();
    obs
}

// ───────────────────────── end to end ─────────────────────────

fn end_to_end(args: &Args, threads: usize) -> Report {
    let mut failed = Vec::new();
    let mut setup_s = Vec::new();
    let mut ready = None;
    let mut attempted = 0;
    for _ in 0..SETUPS {
        // Drop the previous set-up (and join its service) before timing.
        drop(ready.take());
        let mut warm_failed = Vec::new();
        let t0 = Instant::now();
        let (r, warm) = set_up(args, threads, &mut warm_failed);
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some(r);
        attempted = warm;
        failed = warm_failed;
    }
    let dur = Duration::from_secs(args.seconds);
    let (lat_ns, end_s, elapsed_s, mut notes) = match ready.expect("set up at least once") {
        Ready::OneShot(jobs) => {
            let obs = closed_loop(
                &jobs,
                threads,
                dur,
                Instant::now(),
                false,
                &|j| j.id.clone(),
                &|j, _| j.run(),
            );
            attempted += obs.attempted;
            failed.extend(obs.failed);
            let note = format!(
                "closed loop, {threads} threads, {} distinct jobs",
                jobs.len()
            );
            (obs.lat_ns, obs.end_s, obs.elapsed_s, vec![note])
        }
        Ready::Corpus(timed) => {
            let obs = run_corpus_passes(&timed, threads, Some(Instant::now() + dur));
            attempted += obs.attempted;
            failed.extend(obs.failed);
            let note = format!(
                "service, {threads} workers, window {}, passes of {CORPUS_BATCH} programs, cache.hit_ratio {:.4} ({} hits, {} misses)",
                2 * threads,
                ratio(obs.hits, obs.hits + obs.misses),
                obs.hits,
                obs.misses
            );
            (obs.lat_ns, obs.end_s, obs.elapsed_s, vec![note])
        }
    };
    // Before the statistics below add their own copies of the samples.
    let rss = peak_rss_mb();
    let t = windowed_tail(&lat_ns, &end_s, elapsed_s);
    if let Some(t) = t {
        notes.push(format!(
            "job_tail_ms is p{} per window, median of {TAIL_WINDOWS} windows of ~{} samples ({} beyond it)",
            t.percentile,
            lat_ns.len() / TAIL_WINDOWS,
            t.beyond
        ));
    }
    notes.push(format!("setup_s samples {setup_s:?}"));
    #[allow(clippy::cast_precision_loss)]
    let failed_share = failed.len() as f64 / attempted.max(1) as f64;
    notes.push(format!("failed_share {failed_share}"));
    Report {
        attempted,
        metrics: vec![
            (
                "throughput_jobs_s",
                windowed_rate(&end_s, elapsed_s),
                "jobs/s",
            ),
            ("job_p50_ms", median(&lat_ns) / 1e6, "ms"),
            ("job_tail_ms", t.map_or(f64::NAN, |t| t.value / 1e6), "ms"),
            ("ok_share", 1.0 - failed_share, "fraction"),
            ("setup_s", median(&setup_s), "s"),
            ("peak_rss_mb", rss, "MiB"),
        ],
        failed,
        notes,
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let r = a as f64 / b as f64;
    r
}

// ───────────────────────── layered ─────────────────────────

fn layered(args: &Args, threads: usize) -> Report {
    let epoch = Instant::now();
    let mut failed = Vec::new();
    let (ready, mut attempted) = set_up(args, threads, &mut failed);
    let budget = Duration::from_secs(args.seconds);
    let part = |share: f64| budget.mul_f64(share);
    let mut notes = Vec::new();

    // A: untraced, B: traced (the same phase calls, so A against B is the
    // cost of recording spans), in alternating slices; C: exact counters
    // twice, with probes of the layers the workload's own path does not
    // use.
    let (untraced_thr, traced, counts, svc_obs, cache_ratio);
    let mut probe_spans = Tracer::new(epoch, true);
    match ready {
        Ready::OneShot(jobs) => {
            let id = |j: &OneShotJob| j.id.clone();
            let run = |j: &OneShotJob, t: &mut Tracer| phases::one_shot(j, t, None, None);
            let [a, b] = alternating(part(0.8), |tracing, dur| {
                closed_loop(&jobs, threads, dur, epoch, tracing, &id, &run)
            });
            untraced_thr = a.throughput();
            attempted += a.attempted + b.attempted;
            failed.extend(a.failed);
            failed.extend(b.failed.iter().cloned());
            traced = b;
            let count = |t: &mut Tracer, failed: &mut Vec<String>| {
                let cache = ProgramCache::new();
                let mut c = Counters::default();
                for (i, j) in jobs.iter().enumerate() {
                    t.set_job(i as u64);
                    if let Err(e) =
                        guarded(&j.id, || phases::one_shot(j, t, Some(&mut c), Some(&cache)))
                    {
                        failed.push(e);
                    }
                }
                c
            };
            counts = [
                count(&mut probe_spans, &mut failed),
                count(&mut probe_spans, &mut failed),
            ];
            attempted += 2 * jobs.len() as u64;
            let obs = service_probe(&jobs, threads);
            cache_ratio = ratio(obs.hits, obs.hits + obs.misses);
            attempted += obs.attempted;
            failed.extend(obs.failed.iter().cloned());
            notes.push(format!(
                "service.* and cache.hit_ratio from a probe: all {} jobs as run jobs",
                jobs.len()
            ));
            svc_obs = obs;
        }
        Ready::Corpus(timed) => {
            let obs = run_corpus_passes(&timed, threads, Some(Instant::now() + part(0.3)));
            attempted += obs.attempted;
            failed.extend(obs.failed.iter().cloned());
            cache_ratio = ratio(obs.hits, obs.hits + obs.misses);
            svc_obs = obs;
            // Single-threaded replays of the same passes through the phase
            // calls, a cold cache per pass, without and with spans.
            let jobs: Vec<ReplayJob> = (0..timed.len())
                .step_by(CORPUS_BATCH)
                .flat_map(|b| {
                    CORPUS_MODES
                        .into_iter()
                        .flat_map(move |m| (b..b + CORPUS_BATCH).map(move |i| (i, m)))
                })
                .collect();
            let id = |&(i, m): &ReplayJob| format!("{}:{}", timed[i].id, m.label());
            let run = |&(i, m): &ReplayJob, t: &mut Tracer, cache: &ProgramCache| {
                phases::corpus_job(&timed[i], m, cache, t, None, false)
            };
            // Both halves of a slice start at the same pass; the next slice
            // starts at the first whole pair of passes the traced one left.
            let mut start = 0;
            let [a, b] = alternating(part(0.5), |tracing, dur| {
                let obs = replay(&jobs, start, dur, epoch, tracing, &id, &run);
                if tracing {
                    let done = usize::try_from(obs.attempted).unwrap_or(usize::MAX);
                    start = (start + done.next_multiple_of(2 * CORPUS_BATCH)) % jobs.len();
                }
                obs
            });
            untraced_thr = a.throughput();
            attempted += a.attempted + b.attempted;
            failed.extend(a.failed);
            failed.extend(b.failed.iter().cloned());
            traced = b;
            let counted = usize::try_from(CORPUS_COUNTED)
                .expect("small")
                .min(timed.len());
            let count = |t: &mut Tracer, failed: &mut Vec<String>| {
                let mut c = Counters::default();
                for m in CORPUS_MODES {
                    let cache = ProgramCache::new();
                    for (i, p) in timed.iter().take(counted).enumerate() {
                        t.set_job(i as u64);
                        let probe = m == Mode::EngineDiff;
                        let id = format!("{}:{}", p.id, m.label());
                        if let Err(e) = guarded(&id, || {
                            phases::corpus_job(p, m, &cache, t, Some(&mut c), probe)
                        }) {
                            failed.push(e);
                        }
                    }
                }
                c
            };
            counts = [
                count(&mut probe_spans, &mut failed),
                count(&mut probe_spans, &mut failed),
            ];
            attempted += 4 * counted as u64;
            notes.push(format!("inner layers from a single-threaded replay; counters over the first {counted} programs"));
        }
    }
    if counts[0] != counts[1] {
        for (k, v) in &counts[0].0 {
            if counts[1].get(k) != *v {
                eprintln!("COUNTER MISMATCH {k}: {v} then {}", counts[1].get(k));
            }
        }
        failed.push("exact counters differ between two passes over the same inputs".to_string());
    }
    write_spans(args, &traced.tracer, &probe_spans);
    notes.extend(job_time_shares(&summarize(&traced.tracer)));
    let metrics = layer_metrics(&Measured {
        traced: &traced,
        probes: &probe_spans,
        counts: &counts[0],
        svc: &svc_obs,
        cache_ratio,
        untraced_thr,
    });
    Report {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// A corpus job of the replay: a program index and a mode.
type ReplayJob = (usize, Mode);

/// A single-threaded closed loop cycling over `jobs` from job `start` (the
/// first of a pass), with a fresh cache for every pass of
/// [`CORPUS_BATCH`] jobs.
fn replay(
    jobs: &[ReplayJob],
    start: usize,
    dur: Duration,
    epoch: Instant,
    tracing: bool,
    id_of: &(dyn Fn(&ReplayJob) -> String + Sync),
    run: &(dyn Fn(&ReplayJob, &mut Tracer, &ProgramCache) -> Result<(), String> + Sync),
) -> LoopObs {
    let mut jobs = jobs.to_vec();
    jobs.rotate_left(start);
    let cache = Mutex::new(ProgramCache::new());
    // One thread, so jobs are taken in order.
    let taken = AtomicUsize::new(0);
    closed_loop(&jobs, 1, dur, epoch, tracing, id_of, &|j, t| {
        let mut cache = cache.lock().unwrap_or_else(PoisonError::into_inner);
        if taken
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(CORPUS_BATCH)
        {
            *cache = ProgramCache::new();
        }
        run(j, t, &cache)
    })
}

/// Run a one-shot workload's runs once through the service (one run job
/// each), for the service and cache metrics of a workload that does not
/// use it.
fn service_probe(jobs: &[OneShotJob], threads: usize) -> ServiceObs {
    let mut obs = ServiceObs::default();
    for cap in [CapModel::Morello, CapModel::Cheriot] {
        let subset: Vec<(&OneShotJob, &Run)> = jobs
            .iter()
            .flat_map(|j| j.runs.iter().map(move |r| (j, r)))
            .filter(|(_, r)| r.cap == cap)
            .collect();
        if subset.is_empty() {
            continue;
        }
        let mut specs = subset.iter().map(|(j, r)| JobSpec {
            id: format!("{} [{}]", j.id, r.label),
            source: Arc::clone(&r.source),
            profiles: vec![r.profile.clone()],
            mode: Mode::Run,
        });
        let check = |i: usize, out: &JobOutput| check_service_run(subset[i].1, out);
        let o = match cap {
            CapModel::Morello => service_loop(
                &mut Service::<MorelloCap>::new(threads),
                &mut specs,
                2 * threads,
                threads,
                Instant::now(),
                None,
                &check,
            ),
            CapModel::Cheriot => service_loop(
                &mut Service::<CheriotCap>::new(threads),
                &mut specs,
                2 * threads,
                threads,
                Instant::now(),
                None,
                &check,
            ),
        };
        obs.merge(o);
    }
    obs
}

/// Check a run-mode service output against the run's reference, on the
/// rendered outcome label.
fn check_service_run(run: &Run, out: &JobOutput) -> Result<(), String> {
    use cheri_testsuite::Expected;
    for p in &out.profiles {
        let o = p.outcome.as_str();
        let ok = match &run.reference {
            Reference::Exact { exit, stdout } => {
                o == format!("exit({exit})") && p.stdout == *stdout
            }
            Reference::Table1(Expected::Exit(c)) => o == format!("exit({c})"),
            Reference::Table1(Expected::Ub(ub)) => o == format!("UB:{ub}"),
            Reference::Table1(Expected::AnyUb) => o.starts_with("UB:"),
            Reference::Table1(Expected::Trap) => o.starts_with("trap:"),
            Reference::Table1(Expected::SafetyStop) => {
                o.starts_with("UB:") || o.starts_with("trap:")
            }
            Reference::Table1(Expected::OutputContains(s)) => {
                o == "exit(0)" && (p.stdout.contains(s) || p.stderr.contains(s))
            }
        };
        if !ok {
            return Err(format!(
                "{} via service: expected {:?}, got {o}",
                out.id, run.reference
            ));
        }
    }
    Ok(())
}

/// Write the spans out (the first `SPAN_LIMIT` of each set).
fn write_spans(args: &Args, traced: &Tracer, probes: &Tracer) {
    const SPAN_LIMIT: usize = 200_000;
    let dir = std::path::Path::new(".bench_out");
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let stem = format!("{:?}-seed{}", args.workload, args.seed).to_lowercase();
    for (kind, t) in [("traced", traced), ("probes", probes)] {
        let path = dir.join(format!("{stem}.{kind}.spans.tsv"));
        if let Err(e) = std::fs::write(&path, trace::render_spans(t, SPAN_LIMIT)) {
            eprintln!("warning: cannot write {}: {e}", path.display());
        }
    }
}

/// Share of traced job wall time per layer (self time), and the share no
/// layer span covers.
fn job_time_shares(roots: &[RootSummary]) -> Vec<String> {
    let jobs: Vec<&RootSummary> = roots.iter().filter(|r| r.name == "job").collect();
    let total: u64 = jobs.iter().map(|r| r.dur).sum();
    let mut per: BTreeMap<&str, u64> = BTreeMap::new();
    for r in &jobs {
        for (k, v) in &r.layers {
            *per.entry(k).or_default() += v;
        }
    }
    let front: u64 = [
        "lex", "parse", "typeck", "opt", "lower", "promote", "peephole",
    ]
    .iter()
    .map(|k| per.get(k).copied().unwrap_or(0))
    .sum();
    let mut out: Vec<String> = per
        .iter()
        .map(|(k, v)| format!("share of job time in {k}: {:.4}", ratio(*v, total)))
        .collect();
    out.push(format!(
        "share of job time in the front end (lex..peephole): {:.4}",
        ratio(front, total)
    ));
    out
}

/// Per-root median of `f`, over roots where it is defined.
fn per_root(roots: &[&RootSummary], f: impl Fn(&RootSummary) -> Option<f64>) -> f64 {
    let v: Vec<f64> = roots.iter().filter_map(|r| f(r)).collect();
    median(&v)
}

/// Everything a trace run measured, from which the per-layer metrics are
/// derived.
struct Measured<'a> {
    /// The traced loop (the workload's own path).
    traced: &'a LoopObs,
    /// The counter and probe passes.
    probes: &'a Tracer,
    /// Exact counts of the first counter pass.
    counts: &'a Counters,
    /// Service-side observations.
    svc: &'a ServiceObs,
    /// Cache reuse share observed by the service.
    cache_ratio: f64,
    /// Throughput of the untraced loop.
    untraced_thr: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order.
#[allow(clippy::too_many_lines)]
fn layer_metrics(m: &Measured) -> Metrics {
    #[allow(clippy::cast_precision_loss)]
    let f = |n: u64| n as f64;
    let b_roots = summarize(&m.traced.tracer);
    let c_roots = summarize(m.probes);
    let b_jobs: Vec<&RootSummary> = b_roots.iter().filter(|r| r.name == "job").collect();
    let c_all: Vec<&RootSummary> = c_roots.iter().collect();
    let probes: Vec<&RootSummary> = c_roots.iter().filter(|r| r.name == "probe").collect();
    // A layer's times come from the traced loop when the workload's own
    // path uses it, from the probe pass otherwise.
    let source = |layer: &str| {
        if b_jobs.iter().any(|r| r.layers.contains_key(layer)) {
            &b_jobs
        } else {
            &c_all
        }
    };
    // Self time of `layer` in a root; `parse` lexes again, so the lex
    // probe's time is subtracted from it.
    let self_ns = |r: &RootSummary, layer: &str| -> Option<f64> {
        let v = *r.layers.get(layer)?;
        let lex = if layer == "parse" {
            r.layers.get("lex").copied().unwrap_or(0)
        } else {
            0
        };
        Some(f(v.saturating_sub(lex)))
    };
    let time = |layer: &str| per_root(source(layer), |r| self_ns(r, layer));
    // Units of work (a root annotation) per second of the layer's self
    // time, over roots that did some.
    let rate = |layer: &str, note: &str| {
        per_root(source(layer), |r| {
            let n = *r.notes.get(note).filter(|&&n| n > 0)?;
            Some(f(n) * 1e9 / self_ns(r, layer)?.max(1.0))
        })
    };
    let c = |k: &str| f(m.counts.get(k));
    let share = |a: &str, b: &str| ratio(m.counts.get(a), m.counts.get(b));
    let miss_spans = |t: &Tracer| -> Vec<f64> {
        t.spans
            .iter()
            .filter(|s| s.name == "cache.miss")
            .map(|s| f(s.dur()))
            .collect()
    };
    let mut misses = miss_spans(&m.traced.tracer);
    if misses.is_empty() {
        misses = miss_spans(m.probes);
    }
    let (dur, covered) = b_jobs
        .iter()
        .fold((0, 0), |(d, c), r| (d + r.dur, c + r.covered));
    vec![
        ("lex.ns", time("lex"), "ns"),
        ("lex.tokens_per_s", rate("lex", "tokens"), "tokens/s"),
        ("parse.ns", time("parse"), "ns"),
        ("parse.bytes_per_s", rate("parse", "bytes"), "B/s"),
        ("typeck.ns", time("typeck"), "ns"),
        ("opt.ns", time("opt"), "ns"),
        ("lower.ns", time("lower"), "ns"),
        ("lower.ir_insts", c("lower.ir_insts"), "count"),
        ("promote.ns", time("promote"), "ns"),
        (
            "promote.promoted_share",
            share("promote.promoted", "promote.locals"),
            "fraction",
        ),
        ("peephole.ns", time("peephole"), "ns"),
        ("peephole.ir_insts", c("peephole.ir_insts"), "count"),
        (
            "peephole.shrink_ratio",
            share("peephole.ir_insts", "peephole.in_insts"),
            "ratio",
        ),
        ("vm.ns", time("vm"), "ns"),
        ("vm.ns_per_memop", 1e9 / rate("vm", "memops"), "ns"),
        ("tree.ns", time("tree"), "ns"),
        ("lint.ns", time("lint"), "ns"),
        ("lint.steps", c("lint.steps"), "count"),
        (
            "lint.definite_share",
            share("lint.definite", "lint.reports"),
            "fraction",
        ),
        ("lint.must_ub", c("lint.must_ub"), "count"),
        ("lint.may_ub", c("lint.may_ub"), "count"),
        ("lint.clean", c("lint.clean"), "count"),
        ("mem.loads", c("mem.loads"), "count"),
        ("mem.stores", c("mem.stores"), "count"),
        ("mem.allocations", c("mem.allocations"), "count"),
        ("mem.frees", c("mem.frees"), "count"),
        ("mem.memcpy_bytes", c("mem.memcpy_bytes"), "count"),
        ("mem.revoked_caps", c("mem.revoked_caps"), "count"),
        ("cap.rep_checks", c("cap.rep_checks"), "count"),
        ("cap.tag_clears", c("cap.tag_clears"), "count"),
        ("obs.events", c("obs.events"), "count"),
        (
            "obs.traced_overhead_ratio",
            per_root(&probes, |r| {
                Some(self_ns(r, "obs.events")? / self_ns(r, "obs.plain")?)
            }),
            "ratio",
        ),
        ("cache.hit_ratio", m.cache_ratio, "ratio"),
        ("cache.compile_ns_per_miss", median(&misses), "ns"),
        ("cache.hits", c("cache.hits"), "count"),
        ("cache.misses", c("cache.misses"), "count"),
        ("service.exec_ms", median(&m.svc.exec_ns) / 1e6, "ms"),
        ("service.wait_ms", median(&m.svc.wait_ns) / 1e6, "ms"),
        ("service.worker_busy_share", m.svc.busy_share(), "fraction"),
        ("service.render_ns", median(&m.svc.render_ns), "ns"),
        (
            "trace.overhead_ratio",
            m.untraced_thr / m.traced.throughput(),
            "ratio",
        ),
        (
            "trace.uncovered_share",
            1.0 - ratio(covered, dur),
            "fraction",
        ),
    ]
}
