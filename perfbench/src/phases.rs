//! The traced path: each job run as a sequence of calls into the layers'
//! public functions, with a span around every call and exact counters
//! taken at the same boundaries.

use std::sync::Arc;

use cheri_cap::Capability;
use cheri_core::ir::{escape, lower, peephole, promote, IrProgram};
use cheri_core::tast::TProgram;
use cheri_core::types::TargetLayout;
use cheri_core::{
    lex, opt, parse, typeck, CheriotCap, Engine, Interp, MorelloCap, Profile, RunResult,
};
use cheri_lint::{lint_program_with, LintMode, LintReport, Verdict};
use cheri_mem::MemStats;
use cheri_serve::{Mode, ProgramCache};

use crate::kernels::CapModel;
use crate::trace::{Counters, Tracer};
use crate::work::{CorpusProgram, OneShotJob, Run};

/// Pointer size the front end lays types out with (as `compile_for`).
fn layout<C: Capability>(p: &Profile) -> TargetLayout {
    TargetLayout {
        ptr_size: if p.mem.capabilities {
            C::CAP_BYTES as u64
        } else {
            u64::from(C::ADDR_BITS / 8)
        },
    }
}

fn count(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

fn add_mem(c: &mut Counters, s: &MemStats) {
    c.add("mem.loads", s.loads);
    c.add("mem.stores", s.stores);
    c.add("mem.allocations", s.allocations);
    c.add("mem.frees", s.frees);
    c.add("mem.memcpy_bytes", s.memcpy_bytes);
    c.add("mem.revoked_caps", s.revoked_caps);
    c.add("cap.rep_checks", s.representability_checks);
    c.add("cap.tag_clears", s.tag_clears);
}

fn add_lint(c: &mut Counters, r: &LintReport) {
    c.add("lint.reports", 1);
    c.add("lint.steps", r.steps);
    c.add(
        "lint.definite",
        u64::from(matches!(r.mode, LintMode::Definite)),
    );
    c.add(
        match r.overall() {
            Verdict::MustUb => "lint.must_ub",
            Verdict::MayUb => "lint.may_ub",
            Verdict::Clean => "lint.clean",
        },
        1,
    );
}

/// Front end, lowering and IR passes, one span per call: `lex` (a probe;
/// `parse` lexes again internally), `parse`, `typeck`, `opt`, `lower`,
/// `promote` (fast pipeline only) and `peephole`.
///
/// # Errors
///
/// The front end's message on parse or type errors.
pub fn compile<C: Capability>(
    src: &str,
    p: &Profile,
    t: &mut Tracer,
    mut c: Option<&mut Counters>,
) -> Result<(TProgram, IrProgram), String> {
    if let Ok(toks) = t.time("lex", || lex::lex(src)) {
        t.note("tokens", count(toks.len()));
    }
    t.note("bytes", count(src.len()));
    let parsed = t
        .time("parse", || parse::parse(src, layout::<C>(p)))
        .map_err(|e| e.to_string())?;
    let prog = t
        .time("typeck", || typeck::check(parsed))
        .map_err(|e| e.to_string())?;
    let prog = t.time("opt", || opt::optimize(prog, &p.opt));
    let mut ir = t.time("lower", || lower(&prog));
    if let Some(c) = c.as_deref_mut() {
        c.add("lower.ir_insts", count(ir.code_len()));
    }
    if p.opt.register_promote {
        if let Some(c) = c.as_deref_mut() {
            add_escape(c, &ir);
        }
        t.time("promote", || promote::promote(&mut ir));
    }
    let before = ir.code_len();
    t.time("peephole", || peephole::optimize(&mut ir));
    if let Some(c) = c {
        c.add("peephole.in_insts", count(before));
        c.add("peephole.ir_insts", count(ir.code_len()));
    }
    Ok((prog, ir))
}

fn add_escape(c: &mut Counters, raw: &IrProgram) {
    for f in escape::analyze_program(raw).funcs {
        for l in f.locals {
            c.add("promote.locals", 1);
            c.add("promote.promoted", u64::from(l.promoted));
        }
    }
}

fn run_vm<C: Capability>(prog: &TProgram, ir: IrProgram, p: &Profile, t: &mut Tracer) -> RunResult {
    let ir = Arc::new(ir);
    let r = t.time("vm", || Interp::<C>::new(prog, p).with_ir(ir).run());
    t.note("memops", r.mem_stats.loads + r.mem_stats.stores);
    r
}

fn error_result(msg: String) -> RunResult {
    RunResult {
        outcome: cheri_core::Outcome::Error(msg),
        stdout: String::new(),
        stderr: String::new(),
        unspecified_reads: 0,
        mem_stats: MemStats::default(),
    }
}

/// A one-shot job through the phase calls (the workload's own path).
/// With `probe`, every layer the job does not use runs afterwards under
/// a separate `probe` root per default-pipeline run: the tree engine, the
/// event sink (timed against a run without one), lint, promotion and the
/// program cache.
///
/// # Errors
///
/// Describes the first output that mismatched its reference.
pub fn one_shot(
    job: &OneShotJob,
    t: &mut Tracer,
    mut c: Option<&mut Counters>,
    probe: Option<&ProgramCache>,
) -> Result<(), String> {
    let root = t.begin("job");
    let mut result = Ok(());
    for run in &job.runs {
        let r = match run.cap {
            CapModel::Morello => compile_and_run::<MorelloCap>(run, t, c.as_deref_mut()),
            CapModel::Cheriot => compile_and_run::<CheriotCap>(run, t, c.as_deref_mut()),
        };
        if let Some(c) = c.as_deref_mut() {
            add_mem(c, &r.mem_stats);
        }
        if result.is_ok() {
            result = run
                .reference
                .check(&r)
                .map_err(|e| format!("{} [{}]: {e}", job.id, run.label));
        }
    }
    t.end(root);
    let Some(cache) = probe else {
        return result;
    };
    for run in job.runs.iter().filter(|r| !r.profile.opt.register_promote) {
        let root = t.begin("probe");
        let out = match run.cap {
            CapModel::Morello => probe_layers::<MorelloCap>(run, t, c.as_deref_mut(), cache),
            CapModel::Cheriot => probe_layers::<CheriotCap>(run, t, c.as_deref_mut(), cache),
        };
        t.end(root);
        if result.is_ok() {
            result = out.map_err(|e| format!("{} [{}] probe: {e}", job.id, run.label));
        }
    }
    result
}

fn compile_and_run<C: Capability>(
    run: &Run,
    t: &mut Tracer,
    c: Option<&mut Counters>,
) -> RunResult {
    match compile::<C>(&run.source, &run.profile, t, c) {
        Ok((prog, ir)) => run_vm::<C>(&prog, ir, &run.profile, t),
        Err(msg) => error_result(msg),
    }
}

fn probe_layers<C: Capability>(
    run: &Run,
    t: &mut Tracer,
    mut c: Option<&mut Counters>,
    cache: &ProgramCache,
) -> Result<(), String> {
    let (src, p, reference) = (run.source.as_str(), &run.profile, &run.reference);
    cached::<C>(cache, src, p, t, c.as_deref_mut())?;
    let prog = cheri_core::compile_for::<C>(src, p)?;
    let mut raw = lower(&prog);
    if let Some(c) = c.as_deref_mut() {
        add_escape(c, &raw);
    }
    t.time("promote", || promote::promote(&mut raw));
    let ir = Arc::new(cheri_core::ir::lower_for(&prog, &p.opt));
    let tree = t.time("tree", || {
        Interp::<C>::new(&prog, p).with_engine(Engine::Tree).run()
    });
    reference
        .check(&tree)
        .map_err(|e| format!("tree engine: {e}"))?;
    // An untimed run first, so neither timed run pays for cold caches.
    let _ = Interp::<C>::new(&prog, p).with_ir(Arc::clone(&ir)).run();
    let plain = t.time("obs.plain", || {
        Interp::<C>::new(&prog, p).with_ir(Arc::clone(&ir)).run()
    });
    let (traced, events) = t.time("obs.events", || {
        Interp::<C>::new(&prog, p).with_ir(ir).run_with_events()
    });
    if traced.outcome != plain.outcome || traced.mem_stats != plain.mem_stats {
        return Err("run_with_events disagrees with run".to_string());
    }
    let report = t.time("lint", || lint_program_with::<C>(&prog, p));
    if let Some(c) = c {
        c.add("obs.events", count(events.len()));
        add_lint(c, &report);
    }
    Ok(())
}

/// `ProgramCache::get_or_compile` in a span named `cache.hit` or
/// `cache.miss`; returns whether it missed.
fn cached<C: Capability>(
    cache: &ProgramCache,
    src: &str,
    p: &Profile,
    t: &mut Tracer,
    c: Option<&mut Counters>,
) -> Result<(Arc<cheri_serve::CachedProgram>, bool), String> {
    let misses = cache.misses();
    let id = t.begin("cache.hit");
    let unit = cache.get_or_compile::<C>(src, p);
    t.end(id);
    let missed = cache.misses() != misses;
    if missed {
        t.rename(id, "cache.miss");
    }
    if let Some(c) = c {
        c.add(if missed { "cache.misses" } else { "cache.hits" }, 1);
    }
    Ok((unit?, missed))
}

/// One corpus service job replayed through the phase calls: per profile a
/// cache lookup, then both engines with event sinks (`engine-diff`) or the
/// VM and lint (`lint-check`). With `probe`, every compile the cache
/// missed is repeated through the front-end calls, and the event sink is
/// timed against a run without one, under a `probe` root.
///
/// # Errors
///
/// Describes the first check that failed.
pub fn corpus_job(
    prog: &CorpusProgram,
    mode: Mode,
    cache: &ProgramCache,
    t: &mut Tracer,
    mut c: Option<&mut Counters>,
    probe: bool,
) -> Result<(), String> {
    let fail = |p: &Profile, e: String| format!("{}:{} [{}]: {e}", prog.id, mode.label(), p.name);
    let profiles = Profile::all_compared();
    let mut missed = Vec::new();
    let mut result = Ok(());
    let root = t.begin("job");
    for p in &profiles {
        let (unit, miss) = match cached::<MorelloCap>(cache, &prog.source, p, t, c.as_deref_mut()) {
            Ok(u) => u,
            Err(e) => {
                result = result.and(Err(fail(p, e)));
                continue;
            }
        };
        if miss {
            missed.push(p);
        }
        let checked = match mode {
            Mode::EngineDiff => {
                let (tr, tev) = t.time("tree", || {
                    Interp::<MorelloCap>::new(&unit.tast, p)
                        .with_engine(Engine::Tree)
                        .run_with_events()
                });
                let ir = Arc::clone(&unit.ir);
                let (br, bev) = t.time("vm", || {
                    Interp::<MorelloCap>::new(&unit.tast, p)
                        .with_ir(ir)
                        .run_with_events()
                });
                t.note("memops", br.mem_stats.loads + br.mem_stats.stores);
                if let Some(c) = c.as_deref_mut() {
                    add_mem(c, &br.mem_stats);
                    c.add("obs.events", count(bev.len()));
                }
                if tr.outcome.label() != br.outcome.label()
                    || tr.stdout != br.stdout
                    || tr.mem_stats != br.mem_stats
                    || tev != bev
                {
                    Err(format!(
                        "engines disagree: tree {} vm {}",
                        tr.outcome.label(),
                        br.outcome.label()
                    ))
                } else {
                    check_oracle(&br, prog.oracle)
                }
            }
            _ => {
                let ir = Arc::clone(&unit.ir);
                let r = t.time("vm", || {
                    Interp::<MorelloCap>::new(&unit.tast, p).with_ir(ir).run()
                });
                t.note("memops", r.mem_stats.loads + r.mem_stats.stores);
                let report = t.time("lint", || lint_program_with::<MorelloCap>(&unit.tast, p));
                if let Some(c) = c.as_deref_mut() {
                    add_mem(c, &r.mem_stats);
                    add_lint(c, &report);
                }
                let stop = r.outcome.is_safety_stop();
                match report.overall() {
                    Verdict::MustUb if !stop => Err(format!("MustUb but {}", r.outcome.label())),
                    Verdict::Clean if stop => Err(format!("Clean but {}", r.outcome.label())),
                    _ => check_oracle(&r, prog.oracle),
                }
            }
        };
        if let Err(e) = checked {
            result = result.and(Err(fail(p, e)));
        }
    }
    t.end(root);
    if probe {
        let root = t.begin("probe");
        for p in missed {
            if let Ok((tast, _)) = compile::<MorelloCap>(&prog.source, p, t, c.as_deref_mut()) {
                let mut raw = lower(&tast);
                if let Some(c) = c.as_deref_mut() {
                    add_escape(c, &raw);
                }
                t.time("promote", || promote::promote(&mut raw));
            }
        }
        let p = &profiles[0];
        if let Ok(unit) = cache.get_or_compile::<MorelloCap>(&prog.source, p) {
            let plain = || {
                Interp::<MorelloCap>::new(&unit.tast, p)
                    .with_ir(Arc::clone(&unit.ir))
                    .run()
            };
            let _ = plain();
            t.time("obs.plain", plain);
            let ir = Arc::clone(&unit.ir);
            t.time("obs.events", || {
                Interp::<MorelloCap>::new(&unit.tast, p)
                    .with_ir(ir)
                    .run_with_events()
            });
        }
        t.end(root);
    }
    result
}

fn check_oracle(r: &RunResult, oracle: Option<i64>) -> Result<(), String> {
    match (&r.outcome, oracle) {
        (cheri_core::Outcome::Error(m), _) => Err(format!("error: {m}")),
        (o, Some(code)) if *o != cheri_core::Outcome::Exit(code) => {
            Err(format!("expected exit({code}), got {}", o.label()))
        }
        _ => Ok(()),
    }
}
