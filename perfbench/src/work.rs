//! The three workloads: their inputs (from the seed), their jobs, and the
//! references every job's output is checked against.

use std::sync::Arc;

use cheri_bench::progen::generate_traced;
use cheri_core::{CheriotCap, MorelloCap, Outcome, Profile, RunResult};
use cheri_qc::Rng;
use cheri_serve::{fast_variant, profile_by_name, JobOutput, JobSpec, Mode};
use cheri_testsuite::Expected;

use crate::kernels::{kernels, CapModel};

/// Which workload a run measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Table-1 tests × compared profiles, one-shot runs.
    Suite,
    /// Long-running kernels, default and fast pipeline.
    Kernels,
    /// A seeded corpus through `cheri_serve::Service`.
    CorpusBatch,
}

impl Workload {
    /// Parse a workload name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "suite" => Some(Workload::Suite),
            "kernels" => Some(Workload::Kernels),
            "corpus_batch" => Some(Workload::CorpusBatch),
            _ => None,
        }
    }
}

/// What a run's output must be.
#[derive(Clone, Debug)]
pub enum Reference {
    /// A Table-1 expectation.
    Table1(Expected),
    /// An exact exit code and standard output.
    Exact {
        /// Exit code.
        exit: i64,
        /// Standard output.
        stdout: String,
    },
}

impl Reference {
    /// Check a run against the reference.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&self, r: &RunResult) -> Result<(), String> {
        let ok = match self {
            Reference::Table1(e) => e.matches(r),
            Reference::Exact { exit, stdout } => {
                r.outcome == Outcome::Exit(*exit) && r.stdout == *stdout
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!(
                "expected {self:?}, got {} stdout {:?}",
                r.outcome.label(),
                r.stdout
            ))
        }
    }
}

/// One run of a one-shot job: a source under a profile, compiled anew as
/// the CLI does.
pub struct Run {
    /// Names the run inside its job (reported when it fails).
    pub label: String,
    /// The C source.
    pub source: Arc<String>,
    /// Capability model.
    pub cap: CapModel,
    /// Profile.
    pub profile: Profile,
    /// What the run's output must be.
    pub reference: Reference,
}

/// A job of the one-shot workloads: one or more runs, one after another.
pub struct OneShotJob {
    /// Job id (reported when the job fails).
    pub id: String,
    /// The runs.
    pub runs: Vec<Run>,
}

impl OneShotJob {
    /// Run the job the way a user does: `run_with` per run.
    ///
    /// # Errors
    ///
    /// Describes the first run whose output mismatched its reference.
    pub fn run(&self) -> Result<(), String> {
        for run in &self.runs {
            let r = match run.cap {
                CapModel::Morello => cheri_core::run_with::<MorelloCap>(&run.source, &run.profile),
                CapModel::Cheriot => cheri_core::run_with::<CheriotCap>(&run.source, &run.profile),
            };
            run.reference
                .check(&r)
                .map_err(|e| format!("{} [{}]: {e}", self.id, run.label))?;
        }
        Ok(())
    }
}

/// The suite: every Table-1 test under every compared profile, shuffled
/// by the seed.
#[must_use]
pub fn suite_jobs(seed: u64) -> Vec<OneShotJob> {
    let profiles = Profile::all_compared();
    let mut jobs = Vec::new();
    for t in cheri_testsuite::all_tests() {
        let source = Arc::new(t.source.to_string());
        for p in &profiles {
            jobs.push(OneShotJob {
                id: format!("{}@{}", t.id, p.name),
                runs: vec![Run {
                    label: p.name.clone(),
                    source: Arc::clone(&source),
                    cap: CapModel::Morello,
                    profile: p.clone(),
                    reference: Reference::Table1(t.expected_for(&p.name)),
                }],
            });
        }
    }
    Rng::seed_from_u64(seed).shuffle(&mut jobs);
    jobs
}

/// The kernels: one job that runs every kernel under the default pipeline
/// and then under the fast (register-promoting) pipeline. The kernels
/// differ in length by up to about five times, so a job of one kernel
/// would make the latency percentiles say which kernel they fall on; a
/// job of all of them gives one latency distribution.
#[must_use]
pub fn kernel_jobs(seed: u64) -> Vec<OneShotJob> {
    let mut runs = Vec::new();
    for k in kernels(seed) {
        let p = profile_by_name(k.profile).expect("kernel profiles exist");
        let source = Arc::new(k.source);
        let reference = Reference::Exact {
            exit: k.exit,
            stdout: k.stdout,
        };
        for profile in [p.clone(), fast_variant(p)] {
            runs.push(Run {
                label: format!("{} {}", k.name, profile.name),
                source: Arc::clone(&source),
                cap: k.cap,
                profile,
                reference: reference.clone(),
            });
        }
    }
    vec![OneShotJob {
        id: "kernels".to_string(),
        runs,
    }]
}

/// One generated corpus program and its oracle.
pub struct CorpusProgram {
    /// `seed<N>-<family>`.
    pub id: String,
    /// The C source.
    pub source: Arc<String>,
    /// The oracle's exit code (`None` for the buggy family).
    pub oracle: Option<i64>,
}

/// Programs `[base, base + count)` of the corpus: program `k` is progen
/// seed `base/2 + k/2`, well-defined family for even `k`, buggy for odd.
#[must_use]
pub fn corpus_programs(base: u64, count: u64) -> Vec<CorpusProgram> {
    (base..base + count)
        .map(|k| {
            let (seed, buggy) = (k / 2, k % 2 == 1);
            let t = generate_traced(seed, buggy);
            CorpusProgram {
                id: format!("seed{seed}-{}", u8::from(buggy)),
                source: Arc::new(t.source()),
                oracle: t.oracle_exit(),
            }
        })
        .collect()
}

/// Corpus program indices reserved per workload seed; the warm-up block
/// and the timed block are disjoint ranges inside it.
pub const CORPUS_STRIDE: u64 = 1 << 24;
/// Programs in the warm-up block.
pub const CORPUS_WARM: u64 = 64;
/// Programs in the timed block, which the timed run cycles over.
pub const CORPUS_TIMED: u64 = 1024;

/// The job modes of the corpus, in the order CI runs them: each mode is a
/// manifest of its own, run by a `--batch` process of its own.
pub const CORPUS_MODES: [Mode; 2] = [Mode::EngineDiff, Mode::LintCheck];

/// The service job for one corpus program in one mode, as the batch
/// manifests spell it.
#[must_use]
pub fn corpus_spec(p: &CorpusProgram, mode: Mode) -> JobSpec {
    JobSpec {
        id: format!("{}:{}", p.id, mode.label()),
        source: Arc::clone(&p.source),
        profiles: Profile::all_compared(),
        mode,
    }
}

/// Check a service output against the progen oracle.
///
/// # Errors
///
/// Describes the erroring or mismatching profile.
pub fn check_corpus_output(out: &JobOutput, oracle: Option<i64>) -> Result<(), String> {
    if out.has_error() {
        let bad = out.profiles.iter().find(|p| {
            p.outcome.starts_with("error")
                || p.outcome.starts_with("engine-divergence")
                || p.outcome.starts_with("lint-unsound")
        });
        return Err(format!(
            "{}: {}",
            out.id,
            bad.map_or("error", |p| p.outcome.as_str())
        ));
    }
    if let Some(code) = oracle {
        let want = format!("exit({code})");
        if let Some(p) = out.profiles.iter().find(|p| p.outcome != want) {
            return Err(format!(
                "{} [{}]: expected {want}, got {}",
                out.id, p.profile, p.outcome
            ));
        }
    }
    Ok(())
}
