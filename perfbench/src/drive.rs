//! Load generators: a closed loop over worker threads for the one-shot
//! workloads, and a closed loop with a fixed window of jobs in flight
//! through `cheri_serve::Service` for the corpus.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use cheri_cap::Capability;
use cheri_serve::{JobOutput, JobSpec, Service};

use crate::trace::Tracer;

/// Set by the panic hook when any thread panics.
pub static PANICKED: AtomicBool = AtomicBool::new(false);

/// Install a panic hook that records the panic and prints it as usual.
pub fn install_panic_hook() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICKED.store(true, Ordering::SeqCst);
        default(info);
    }));
}

/// Run `f`, counting a panic as a failure of job `id`.
///
/// # Errors
///
/// `f`'s error, or that the job panicked.
pub fn guarded(id: &str, f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err(format!("{id}: panicked")))
}

fn ns(d: Duration) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let v = d.as_nanos() as f64;
    v
}

/// What a closed-loop run observed.
pub struct LoopObs {
    /// Per-job latency, ns.
    pub lat_ns: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Ids and reasons of failed jobs.
    pub failed: Vec<String>,
    /// Completion times, s since the start.
    pub end_s: Vec<f64>,
    /// Wall time from start to the last job's end, s.
    pub elapsed_s: f64,
    /// Spans (empty when not tracing).
    pub tracer: Tracer,
}

impl LoopObs {
    /// An empty record with room for `samples` jobs. Reserved pages that
    /// are never written do not count towards the resident set, and no
    /// growth step copies the samples while the loop runs.
    fn new(epoch: Instant, tracing: bool, samples: usize) -> Self {
        LoopObs {
            lat_ns: Vec::with_capacity(samples),
            attempted: 0,
            failed: Vec::new(),
            end_s: Vec::with_capacity(samples),
            elapsed_s: 0.0,
            tracer: Tracer::new(epoch, tracing),
        }
    }

    /// Completed jobs per second over the whole loop. Not windowed: a
    /// loop of long jobs completes too few in a window for a rate read
    /// from it to resolve a few per cent.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let n = self.end_s.len() as f64;
        n / self.elapsed_s
    }

    /// Append a loop that ran after this one.
    fn append(&mut self, later: LoopObs) {
        let offset = self.elapsed_s;
        self.attempted += later.attempted;
        self.lat_ns.extend(later.lat_ns);
        self.end_s
            .extend(later.end_s.into_iter().map(|e| e + offset));
        self.failed.extend(later.failed);
        self.tracer.absorb(later.tracer);
        self.elapsed_s += later.elapsed_s;
    }
}

/// An untraced and a traced run of the same loop, `total` long together,
/// in alternating slices so that the host's drift over the run falls on
/// both alike. `run_slice(tracing, dur)` runs one slice.
pub fn alternating(
    total: Duration,
    mut run_slice: impl FnMut(bool, Duration) -> LoopObs,
) -> [LoopObs; 2] {
    const SLICES: u32 = 5;
    let dur = total / (2 * SLICES);
    let mut first = [run_slice(false, dur), run_slice(true, dur)];
    for _ in 1..SLICES {
        for (obs, tracing) in first.iter_mut().zip([false, true]) {
            obs.append(run_slice(tracing, dur));
        }
    }
    first
}

/// Run `jobs` round-robin on `threads` threads, each taking its next job
/// when the last one finished, until `dur` has passed. A job that panics
/// counts as failed and the loop goes on.
pub fn closed_loop<J: Sync>(
    jobs: &[J],
    threads: usize,
    dur: Duration,
    epoch: Instant,
    tracing: bool,
    id_of: &(dyn Fn(&J) -> String + Sync),
    run: &(dyn Fn(&J, &mut Tracer) -> Result<(), String> + Sync),
) -> LoopObs {
    // Jobs one thread can finish per second, with room to spare.
    const MAX_JOBS_PER_S: u64 = 40_000;
    let reserve = usize::try_from(dur.as_secs().max(1) * MAX_JOBS_PER_S).unwrap_or(usize::MAX);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<LoopObs> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut obs = LoopObs::new(epoch, tracing, reserve);
                    while start.elapsed() < dur {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let job = &jobs[i % jobs.len()];
                        obs.tracer.set_job(i as u64);
                        let t0 = Instant::now();
                        let out = catch_unwind(AssertUnwindSafe(|| run(job, &mut obs.tracer)));
                        obs.lat_ns.push(ns(t0.elapsed()));
                        obs.end_s.push(start.elapsed().as_secs_f64());
                        obs.attempted += 1;
                        if out.is_err() {
                            obs.tracer.abandon_job();
                        }
                        if let Err(e) =
                            out.unwrap_or_else(|_| Err(format!("{}: panicked", id_of(job))))
                        {
                            obs.failed.push(e);
                        }
                    }
                    obs
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loop thread joins"))
            .collect()
    });
    // Append into the first thread's record, whose reserved capacity
    // usually holds every sample, so merging copies as little as it can.
    let mut parts = parts.into_iter();
    let mut obs = parts.next().expect("at least one thread");
    for part in parts {
        obs.attempted += part.attempted;
        obs.lat_ns.extend(part.lat_ns);
        obs.end_s.extend(part.end_s);
        obs.failed.extend(part.failed);
        obs.tracer.absorb(part.tracer);
    }
    obs.elapsed_s = obs.end_s.iter().copied().fold(0.0, f64::max);
    obs
}

/// What a service run observed, from outside the service.
#[derive(Default)]
pub struct ServiceObs {
    /// Submit → rendered output, ns.
    pub lat_ns: Vec<f64>,
    /// `JobOutput::exec_ns`.
    pub exec_ns: Vec<f64>,
    /// Latency minus execution time, ns.
    pub wait_ns: Vec<f64>,
    /// Time of `JobOutput::render`, ns.
    pub render_ns: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Ids and reasons of failed jobs.
    pub failed: Vec<String>,
    /// Release times, s since the loop's epoch.
    pub end_s: Vec<f64>,
    /// Wall time from first submit to last release, s.
    pub elapsed_s: f64,
    /// Cache hits and misses during the run.
    pub hits: u64,
    /// See `hits`.
    pub misses: u64,
    /// Worker count.
    pub workers: usize,
}

impl ServiceObs {
    /// Share of worker time spent executing jobs.
    #[must_use]
    pub fn busy_share(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let capacity = self.elapsed_s * 1e9 * self.workers as f64;
        self.exec_ns.iter().sum::<f64>() / capacity
    }

    /// Fold another run's observations into this one.
    pub fn merge(&mut self, o: ServiceObs) {
        self.lat_ns.extend(o.lat_ns);
        self.exec_ns.extend(o.exec_ns);
        self.wait_ns.extend(o.wait_ns);
        self.render_ns.extend(o.render_ns);
        self.end_s.extend(o.end_s);
        self.attempted += o.attempted;
        self.failed.extend(o.failed);
        self.elapsed_s += o.elapsed_s;
        self.hits += o.hits;
        self.misses += o.misses;
        self.workers = self.workers.max(o.workers);
    }
}

/// Submit `specs` to `svc` keeping `window` jobs in flight, each new job
/// submitted when the oldest one is released, until the specs run out or
/// `deadline` passes; then drain. Release times are taken from `epoch`.
/// `check(i, out)` checks the output of spec `i`. Every output is
/// rendered, as the batch front end does.
///
/// A worker that panics takes its job with it and the service can no
/// longer release outputs in order; a watchdog then reports the job the
/// service is stuck on as failed and ends the process.
pub fn service_loop<C: Capability + Send + 'static>(
    svc: &mut Service<C>,
    specs: &mut dyn Iterator<Item = JobSpec>,
    window: usize,
    workers: usize,
    epoch: Instant,
    deadline: Option<Instant>,
    check: &dyn Fn(usize, &JobOutput) -> Result<(), String>,
) -> ServiceObs {
    let (hits0, misses0) = (svc.cache().hits(), svc.cache().misses());
    let mut obs = ServiceObs {
        workers,
        ..ServiceObs::default()
    };
    let in_flight: Mutex<VecDeque<(Instant, usize, String)>> = Mutex::new(VecDeque::new());
    let released = AtomicU64::new(0);
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let start = Instant::now();
    let mut submitted = 0usize;
    let mut submit = |svc: &mut Service<C>| -> bool {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        let Some(spec) = specs.next() else {
            return false;
        };
        let id = spec.id.clone();
        in_flight
            .lock()
            .expect("in-flight list")
            .push_back((Instant::now(), submitted, id));
        svc.submit(spec);
        submitted += 1;
        true
    };
    std::thread::scope(|s| {
        let (released, in_flight) = (&released, &in_flight);
        s.spawn(move || watchdog(&done_rx, released, in_flight));
        for _ in 0..window {
            if !submit(svc) {
                break;
            }
        }
        while let Some(out) = svc.next_output() {
            let (t0, i, _) = in_flight
                .lock()
                .expect("in-flight list")
                .pop_front()
                .expect("outputs come back in submission order");
            let r0 = Instant::now();
            std::hint::black_box(out.render());
            let end = Instant::now();
            released.fetch_add(1, Ordering::SeqCst);
            #[allow(clippy::cast_precision_loss)]
            let exec = out.exec_ns as f64;
            let lat = ns(end - t0);
            obs.lat_ns.push(lat);
            obs.exec_ns.push(exec);
            obs.wait_ns.push((lat - exec).max(0.0));
            obs.render_ns.push(ns(end - r0));
            obs.attempted += 1;
            if let Err(e) = check(i, &out) {
                obs.failed.push(e);
            }
            obs.end_s.push((end - epoch).as_secs_f64());
            obs.elapsed_s = (end - start).as_secs_f64();
            submit(svc);
        }
        drop(done_tx);
    });
    obs.hits = svc.cache().hits() - hits0;
    obs.misses = svc.cache().misses() - misses0;
    obs
}

/// Ends the process if a panic leaves the service unable to release the
/// job at the head of the window. Returns as soon as `done` disconnects.
fn watchdog(
    done: &mpsc::Receiver<()>,
    released: &AtomicU64,
    in_flight: &Mutex<VecDeque<(Instant, usize, String)>>,
) {
    let mut seen = (released.load(Ordering::SeqCst), Instant::now());
    while let Err(mpsc::RecvTimeoutError::Timeout) = done.recv_timeout(Duration::from_millis(20)) {
        let now = released.load(Ordering::SeqCst);
        if now != seen.0 {
            seen = (now, Instant::now());
        } else if PANICKED.load(Ordering::SeqCst) && seen.1.elapsed() > Duration::from_secs(2) {
            let head = in_flight
                .lock()
                .map(|q| q.front().map(|(_, _, id)| id.clone()))
                .unwrap_or_default();
            eprintln!(
                "FAILED {}: a service worker panicked; the service cannot release it",
                head.unwrap_or_else(|| "<unknown job>".to_string())
            );
            std::process::exit(1);
        }
    }
}
