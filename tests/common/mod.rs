//! Inputs shared by the corpus-wide IR tests (`ir_golden.rs`,
//! `ir_liveness.rs`).

use std::collections::BTreeSet;

use cheri_bench::progen::generate;
use cheri_c::core::Profile;
use cheri_c::serve::CompileKey;
use cheri_c::testsuite::all_tests;
use cheri_cap::MorelloCap;

/// How many progen programs of each family the corpus-wide checks cover.
const PROGEN_PER_FAMILY: u64 = 128;

/// `(name, source)` of the corpus-wide checks: the 94 Table-1 tests, then
/// the first [`PROGEN_PER_FAMILY`] progen programs of the well-defined
/// and of the buggy family.
pub fn corpus_sources() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = all_tests()
        .into_iter()
        .map(|t| (t.id.to_string(), t.source.to_string()))
        .collect();
    assert_eq!(out.len(), 94, "the Table-1 suite has 94 tests");
    for buggy in [false, true] {
        for seed in 0..PROGEN_PER_FAMILY {
            out.push((format!("progen {seed} buggy={buggy}"), generate(seed, buggy).source));
        }
    }
    out
}

/// One profile per distinct compile key (pointer size × optimisation
/// fingerprint) of the compared profiles: the front end's output depends
/// on nothing else, so these cover every IR the compared profiles run.
pub fn key_profiles() -> Vec<Profile> {
    let mut seen = BTreeSet::new();
    Profile::all_compared()
        .into_iter()
        .filter(|p| {
            let k = CompileKey::for_profile::<MorelloCap>("", p);
            seen.insert((k.ptr_size, k.opt))
        })
        .collect()
}
