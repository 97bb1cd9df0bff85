//! The long-running programs of the `kernels` workload, each with a
//! reference result computed by a Rust model of the program — never by a
//! run of the interpreter under test.
//!
//! `dispatch_loop` and `churn` are the `bench_pr10` programs, verbatim.
//! The other three take seed-drawn constants (values only: the amount of
//! work is the same for every seed, so job sizes do not move with it).

use cheri_qc::rng::Rng;

/// Which capability model a kernel runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CapModel {
    /// 128-bit Morello capabilities.
    Morello,
    /// 64-bit CHERIoT capabilities.
    Cheriot,
}

/// One kernel: a C program, the profile it runs under, and its reference.
pub struct Kernel {
    /// Stable name (the job id).
    pub name: &'static str,
    /// The C source.
    pub source: String,
    /// Profile name (resolved with `cheri_serve::profile_by_name`).
    pub profile: &'static str,
    /// Capability model the profile runs under.
    pub cap: CapModel,
    /// Expected exit code.
    pub exit: i64,
    /// Expected standard output.
    pub stdout: String,
}

/// `bench_pr10`'s `DISPATCH_PROGRAM`.
const DISPATCH_PROGRAM: &str = r#"
int main(void) {
  long s = 0;
  for (int i = 0; i < 20000; i++) {
    s += (i * 3) ^ (s & 7);
    s -= i >> 2;
  }
  return s != 0 ? 0 : 1;
}"#;

/// `bench_pr10`'s `CHURN_PROGRAM`.
const CHURN_PROGRAM: &str = r#"
int main(void) {
  long acc = 0;
  for (int i = 0; i < 64; i++) {
    int *p = malloc(128 * sizeof(int));
    for (int j = 0; j < 128; j++) p[j] = j ^ i;
    for (int j = 0; j < 128; j++) acc += p[j];
    free(p);
  }
  return acc > 0 ? 0 : 1;
}"#;

/// Copies an array of capabilities back and forth with `memcpy` and
/// loads through the copies: the copies must keep their tags.
const MEMCPY_CAPS_PROGRAM: &str = r#"
int main(void) {
  int vals[16];
  int *src[16];
  int *dst[16];
  for (int i = 0; i < 16; i++) { vals[i] = (i * @A@ + @B@) % 1000; src[i] = &vals[i]; }
  long sum = 0;
  for (int r = 0; r < @R@; r++) {
    memcpy(dst, src, sizeof(src));
    for (int i = 0; i < 16; i++) sum += *dst[(i + r) % 16];
    memcpy(src, dst, sizeof(dst));
  }
  printf("%ld\n", sum);
  return 0;
}"#;

/// Derives element capabilities from one array capability through
/// `uintptr_t` arithmetic and loads through them.
const UINTPTR_DERIVE_PROGRAM: &str = r#"
#include <stdint.h>
int main(void) {
  int arr[64];
  for (int i = 0; i < 64; i++) arr[i] = (i * @A@) % 97;
  uintptr_t base = (uintptr_t)arr;
  long sum = 0;
  for (int r = 0; r < @R@; r++) {
    for (int i = 0; i < 64; i++) {
      uintptr_t u = base + (unsigned long)(((i * @S@) + r) % 64) * sizeof(int);
      int *p = (int *)u;
      sum += *p;
    }
  }
  printf("%ld\n", sum);
  return 0;
}"#;

/// Allocates and frees small heap objects while capabilities to them stay
/// stored in `ptrs`, so every `free` under a revoking profile sweeps them.
const FREE_HEAVY_PROGRAM: &str = r#"
int main(void) {
  int *ptrs[32];
  long sum = 0;
  for (int r = 0; r < @R@; r++) {
    for (int i = 0; i < 32; i++) {
      ptrs[i] = malloc(4 * sizeof(int));
      ptrs[i][0] = (i * @A@ + r) % 101;
    }
    for (int i = 0; i < 32; i++) { sum += ptrs[i][0]; free(ptrs[i]); }
  }
  printf("%ld\n", sum);
  return 0;
}"#;

/// Rounds of the seeded kernels (fixed: only values depend on the seed).
const MEMCPY_ROUNDS: i64 = 300;
const UINTPTR_ROUNDS: i64 = 40;
const FREE_ROUNDS: i64 = 12;

fn fill(template: &str, vars: &[(&str, i64)]) -> String {
    vars.iter().fold(template.to_string(), |s, (k, v)| {
        s.replace(&format!("@{k}@"), &v.to_string())
    })
}

/// The five kernels for a workload seed.
#[must_use]
pub fn kernels(seed: u64) -> Vec<Kernel> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x6b65_726e_656c_7321);
    let mut draw = |lo: i64, hi: i64| rng.gen_range(lo..hi);

    // dispatch_loop: `s` computed as the C program does (`long`, no overflow).
    let mut s: i64 = 0;
    for i in 0..20000i64 {
        s += (i * 3) ^ (s & 7);
        s -= i >> 2;
    }
    // churn
    let acc: i64 = (0..64i64)
        .map(|i| (0..128i64).map(|j| j ^ i).sum::<i64>())
        .sum();

    let (ma, mb) = (draw(1, 50), draw(0, 500));
    let vals: Vec<i64> = (0..16).map(|i| (i * ma + mb) % 1000).collect();
    let memcpy_sum = MEMCPY_ROUNDS * vals.iter().sum::<i64>();

    let (ua, us) = (draw(1, 97), 2 * draw(0, 32) + 1);
    let arr: Vec<i64> = (0..64).map(|i| (i * ua) % 97).collect();
    let uintptr_sum: i64 = (0..UINTPTR_ROUNDS)
        .map(|r| {
            (0..64)
                .map(|i| arr[usize::try_from((i * us + r) % 64).unwrap()])
                .sum::<i64>()
        })
        .sum();

    let fa = draw(1, 101);
    let free_sum: i64 = (0..FREE_ROUNDS)
        .map(|r| (0..32).map(|i| (i * fa + r) % 101).sum::<i64>())
        .sum();

    vec![
        Kernel {
            name: "dispatch_loop",
            source: DISPATCH_PROGRAM.to_string(),
            profile: "cerberus",
            cap: CapModel::Morello,
            exit: i64::from(s == 0),
            stdout: String::new(),
        },
        Kernel {
            name: "churn",
            source: CHURN_PROGRAM.to_string(),
            profile: "cerberus",
            cap: CapModel::Morello,
            exit: i64::from(acc <= 0),
            stdout: String::new(),
        },
        Kernel {
            name: "memcpy_caps",
            source: fill(
                MEMCPY_CAPS_PROGRAM,
                &[("A", ma), ("B", mb), ("R", MEMCPY_ROUNDS)],
            ),
            profile: "clang-morello-O0",
            cap: CapModel::Morello,
            exit: 0,
            stdout: format!("{memcpy_sum}\n"),
        },
        Kernel {
            name: "uintptr_derive",
            source: fill(
                UINTPTR_DERIVE_PROGRAM,
                &[("A", ua), ("S", us), ("R", UINTPTR_ROUNDS)],
            ),
            profile: "cerberus",
            cap: CapModel::Morello,
            exit: 0,
            stdout: format!("{uintptr_sum}\n"),
        },
        Kernel {
            name: "free_heavy",
            source: fill(FREE_HEAVY_PROGRAM, &[("A", fa), ("R", FREE_ROUNDS)]),
            profile: "cheriot",
            cap: CapModel::Cheriot,
            exit: 0,
            stdout: format!("{free_sum}\n"),
        },
    ]
}
