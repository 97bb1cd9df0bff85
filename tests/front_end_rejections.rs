//! Constraint violations the front end must reject with a positioned
//! error, under both engines and under `--lint`, next to the well-formed
//! neighbours it must keep accepting:
//!
//! * an integer literal above `ULLONG_MAX` has no type (C11 6.4.4p2);
//!   `18446744073709551615UL` is the largest accepted one;
//! * a struct or union member must not have incomplete type (C11
//!   6.7.2.1p3): the aggregate being defined, an enclosing one whose body
//!   is still open, an array of one, or `void`. A pointer to the
//!   aggregate being defined (`struct node *next`) is complete.

use std::process::Command;

use cheri_c::core::{run_with_engine, Engine, Outcome, Profile};
use cheri_c::lint::lint_with;
use cheri_cap::MorelloCap;

/// Programs the front end must reject, with the `line:col` and message
/// of the expected error.
const REJECTED: &[(&str, &str, &str)] = &[
    (
        "int main(void) {\n  long x = 99999999999999999999999999999;\n  return (int)x;\n}\n",
        "2:12",
        "integer literal is too large for any integer type (C11 6.4.4p2)",
    ),
    (
        "int main(void) {\n  unsigned long x = 18446744073709551616UL;\n  return (int)x;\n}\n",
        "2:21",
        "integer literal is too large for any integer type (C11 6.4.4p2)",
    ),
    (
        "int main(void) { return (int)0x10000000000000000; }\n",
        "1:30",
        "integer literal is too large for any integer type (C11 6.4.4p2)",
    ),
    (
        "struct s { int a; struct s x; };\nint main(void) { return (int)sizeof(struct s); }\n",
        "1:28",
        "member `x` has incomplete type `struct s` (C11 6.7.2.1p3)",
    ),
    (
        "struct s { int a; struct s xs[2]; };\nint main(void) { return 0; }\n",
        "1:28",
        "member `xs` has incomplete type `struct s` (C11 6.7.2.1p3)",
    ),
    (
        "struct a { int n; struct b { struct a in; } y; };\nint main(void) { return 0; }\n",
        "1:39",
        "member `in` has incomplete type `struct a` (C11 6.7.2.1p3)",
    ),
    (
        "union u { int a; union u again; };\nint main(void) { return 0; }\n",
        "1:26",
        "member `again` has incomplete type `union u` (C11 6.7.2.1p3)",
    ),
    (
        "struct s { int a; void v; };\nint main(void) { return 0; }\n",
        "1:24",
        "member `v` has incomplete type `void` (C11 6.7.2.1p3)",
    ),
];

/// Well-formed neighbours of the rejected programs, with their exit code.
const ACCEPTED: &[(&str, i64)] = &[
    (
        "int main(void) {\n  unsigned long x = 18446744073709551615UL;\n  unsigned long y = 0xffffffffffffffff;\n  return (int)(x == y) + (int)(x - 18446744073709551614UL);\n}\n",
        2,
    ),
    (
        "int main(void) { long m = -9223372036854775807L - 1; return m < 0 ? 3 : 4; }\n",
        3,
    ),
    (
        "struct node { int v; struct node *next; };\nint main(void) {\n  struct node b = {2, 0};\n  struct node a = {1, &b};\n  return a.next->v;\n}\n",
        2,
    ),
    (
        "struct inner { int x; };\nstruct outer { struct inner i; struct inner is[2]; struct outer *up; };\nint main(void) { struct outer o; o.is[1].x = 5; o.up = &o; return o.up->is[1].x; }\n",
        5,
    ),
];

fn expected_error(pos: &str, msg: &str) -> String {
    format!("parse error at {pos}: {msg}")
}

#[test]
fn ill_formed_programs_are_rejected_by_both_engines() {
    let profile = Profile::cerberus();
    for &(src, pos, msg) in REJECTED {
        for engine in [Engine::Bytecode, Engine::Tree] {
            let r = run_with_engine::<MorelloCap>(src, &profile, engine);
            assert_eq!(
                r.outcome,
                Outcome::Error(expected_error(pos, msg)),
                "{engine:?} on:\n{src}"
            );
        }
    }
}

#[test]
fn ill_formed_programs_are_rejected_by_lint() {
    let profile = Profile::cerberus();
    for &(src, pos, msg) in REJECTED {
        let got = lint_with::<MorelloCap>(src, &profile).err();
        assert_eq!(got, Some(expected_error(pos, msg)), "lint on:\n{src}");
    }
}

/// The CLI's `--lint` reports the front-end error and exits 2.
#[test]
fn cli_lint_reports_the_position() {
    let dir = std::env::temp_dir().join(format!("cheri-fe-reject-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (i, &(src, pos, msg)) in REJECTED.iter().enumerate() {
        let file = dir.join(format!("p{i}.c"));
        std::fs::write(&file, src).expect("write source");
        let out = Command::new(env!("CARGO_BIN_EXE_cheri-c"))
            .arg(&file)
            .arg("--lint")
            .output()
            .expect("run cheri-c");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(2), "{src}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(
            stderr.contains(&expected_error(pos, msg)),
            "{src}\nstderr: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn well_formed_neighbours_are_accepted() {
    let profile = Profile::cerberus();
    for &(src, exit) in ACCEPTED {
        for engine in [Engine::Bytecode, Engine::Tree] {
            let r = run_with_engine::<MorelloCap>(src, &profile, engine);
            assert_eq!(r.outcome, Outcome::Exit(exit), "{engine:?} on:\n{src}");
        }
        let report = lint_with::<MorelloCap>(src, &profile).expect("lint accepts the program");
        assert_eq!(report.exit_code(), 0, "lint on:\n{src}\n{}", report.render_text());
    }
}
