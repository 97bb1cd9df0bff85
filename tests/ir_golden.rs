//! Golden tests for the `--emit-ir` rendering of the lowered bytecode.
//!
//! The dumps under `tests/golden/ir/` pin every stage of the pipeline:
//! `<name>.ir` is the raw lowering (block structure, register
//! allocation, constant pools and the textual format itself),
//! `<name>.opt.ir` is the peephole-optimised form the bytecode engine
//! executes by default, and `<name>.fast.ir` is the register-promoted +
//! peephole form the `--fast` mode executes, so any change to the
//! lowering, the optimiser *or* the escape-analysis promotion shows up
//! as a reviewable diff rather than silently shifting what the VM runs.
//!
//! Regenerate after an intentional lowering change:
//! `CHERI_GOLDEN_BLESS=1 cargo test --test ir_golden`.
//!
//! Beyond the three dumps, one digest pins the optimised IR of the whole
//! Table-1 suite and of a progen slice (`corpus_ir_digest_is_pinned`);
//! after an intentional change, put the digest the failure prints into
//! `CORPUS_IR_DIGEST`.

mod common;

use std::path::PathBuf;

use cheri_c::core::{compile_for, ir, Profile};
use cheri_c::serve::cache::fnv1a64;
use cheri_cap::MorelloCap;

use common::{corpus_sources, key_profiles};

/// Three programs chosen to cover the lowering surface: straight-line
/// arithmetic with calls, every loop/branch construct (explicit jumps),
/// and the capability-specific paths (pointer arithmetic, casts,
/// aggregates, string literals, builtins).
const PROGRAMS: &[(&str, &str)] = &[
    (
        "arith_calls",
        r#"
        int add(int a, int b) { return a + b; }
        int main(void) {
          int s = 0;
          s = add(s, 3) * 2 - 1;
          s += add(s, s) % 7;
          return s;
        }
    "#,
    ),
    (
        "control_flow",
        r#"
        int main(void) {
          int s = 0;
          for (int i = 0; i < 8; i++) {
            if (i % 2 == 0) continue;
            s += i;
          }
          while (s > 10) { s -= 3; }
          do { s++; } while (s < 5 && s != 4);
          switch (s) {
            case 4: s = 40; break;
            case 5: s = 50;
            default: s += 1;
          }
          return s ? s : -1;
        }
    "#,
    ),
    (
        "pointers_caps",
        r#"
        #include <stdint.h>
        struct pair { int a; int b; };
        int main(void) {
          int x[4] = {1, 2, 3, 4};
          int *p = &x[1];
          uintptr_t u = (uintptr_t)p;
          int *q = (int *)(u + sizeof(int));
          struct pair pr = {5, 6};
          pr.b = *q + p[1];
          char msg[4] = "hi";
          int n = (int)msg[0];
          return pr.b + n - x[3] - 'h';
        }
    "#,
    ),
];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("ir")
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Raw,
    Opt,
    Fast,
}

fn render(src: &str, stage: Stage) -> String {
    let profile = Profile::cerberus();
    let prog = compile_for::<MorelloCap>(src, &profile).expect("golden programs compile");
    match stage {
        Stage::Raw => ir::lower(&prog).render(),
        Stage::Opt => ir::lower_opt(&prog).render(),
        Stage::Fast => ir::lower_fast(&prog).render(),
    }
}

#[test]
fn ir_dumps_match_goldens() {
    let bless = std::env::var("CHERI_GOLDEN_BLESS").is_ok();
    let dir = golden_dir();
    let mut failures = Vec::new();
    let cases = PROGRAMS.iter().flat_map(|(name, src)| {
        [
            (format!("{name}.ir"), *src, Stage::Raw),
            (format!("{name}.opt.ir"), *src, Stage::Opt),
            (format!("{name}.fast.ir"), *src, Stage::Fast),
        ]
    });
    for (file, src, stage) in cases {
        let got = render(src, stage);
        let path = dir.join(&file);
        if bless {
            std::fs::create_dir_all(&dir).expect("create golden dir");
            std::fs::write(&path, &got).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
        if got != want {
            let at = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or(0);
            failures.push(format!(
                "{file}: IR dump differs from {} (first differing line {}); \
                 rerun with CHERI_GOLDEN_BLESS=1 if the lowering change is intentional",
                path.display(),
                at + 1
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// The dump must be deterministic run-to-run (stable pools and function
/// order) — a prerequisite for treating dumps as goldens at all.
#[test]
fn ir_rendering_is_deterministic() {
    for (name, src) in PROGRAMS {
        assert_eq!(render(src, Stage::Raw), render(src, Stage::Raw), "{name} rendered unstably");
        assert_eq!(
            render(src, Stage::Opt),
            render(src, Stage::Opt),
            "{name} optimised render unstable"
        );
        assert_eq!(
            render(src, Stage::Fast),
            render(src, Stage::Fast),
            "{name} fast render unstable"
        );
    }
}

/// The FNV-1a digest of every optimised IR dump, default and fast
/// pipeline, of every corpus source under every distinct compile key.
/// Pins the peephole, promotion and lowering far beyond the three golden
/// programs above: any change to what the VM runs for these inputs moves
/// the digest. A source the front end rejects contributes a fixed marker,
/// so a newly rejected program moves it too.
const CORPUS_IR_DIGEST: u64 = 0xbcfb_b9ef_eeab_e651;

#[test]
fn corpus_ir_digest_is_pinned() {
    let mut all = String::new();
    for (name, src) in corpus_sources() {
        for profile in key_profiles() {
            all.push_str(&format!("== {name} @ {}\n", profile.name));
            match compile_for::<MorelloCap>(&src, &profile) {
                Ok(prog) => {
                    all.push_str(&ir::lower_opt(&prog).render());
                    all.push_str(&ir::lower_fast(&prog).render());
                }
                Err(_) => all.push_str("front-end error\n"),
            }
        }
    }
    let got = fnv1a64(all.as_bytes());
    assert_eq!(
        got, CORPUS_IR_DIGEST,
        "the optimised IR of the corpus changed: digest {got:#018x}"
    );
}

/// Optimising twice changes nothing: the rounds loop reached a real
/// fixpoint, not an oscillation, and no function stopped at the round
/// bound with a rewrite still pending. Checked on a hand-written program
/// with nested aggregates and calls, and on every corpus source under
/// every distinct compile key, for both pipelines.
#[test]
fn optimization_is_idempotent_on_lowered_programs() {
    let handwritten = "
        struct in { int x; int y; };
        struct out { int pad; struct in i; };
        int pick(int c) { if (c > 0) return c; else return -c; }
        int main(void) {
          struct out s;
          s.i.y = 6;
          int t = 0;
          for (int k = 0; k < 4; k++) t += pick(k - 2);
          return t + s.i.y;
        }";
    let mut sources = corpus_sources();
    sources.push(("handwritten".into(), handwritten.into()));
    for (name, src) in &sources {
        for profile in key_profiles() {
            let Ok(prog) = compile_for::<MorelloCap>(src, &profile) else { continue };
            for once in [ir::lower_opt(&prog), ir::lower_fast(&prog)] {
                let mut twice = once.clone();
                ir::peephole::optimize(&mut twice);
                assert_eq!(
                    once.render(),
                    twice.render(),
                    "{name} @ {}: a second optimisation changed the IR",
                    profile.name
                );
            }
        }
    }
}
