//! The block-level register liveness (`cheri_core::ir::liveness`) against
//! a naive oracle: the per-instruction backward fixpoint it replaced,
//! which sweeps every pc until no row changes. Both must reach the same
//! least fixpoint, so every pc's live-in row must be equal.
//!
//! Inputs: every function of the 94 Table-1 tests and of the first 128
//! progen programs of each family, as raw, register-promoted and
//! optimised (default and fast pipeline) IR, under each distinct compile
//! key of the compared profiles; and a hand-written loop over more than
//! 64 registers, which needs the multi-word rows and a real fixpoint.

mod common;

use cheri_c::core::ast::BinOp;
use cheri_c::core::compile_for;
use cheri_c::core::ir::liveness::{def_of, for_each_use, successors, Liveness};
use cheri_c::core::ir::{self, Inst, IrFunc, IrProgram, Reg, TyId};
use cheri_c::core::tast::DeriveFrom;
use cheri_c::core::types::IntTy;
use cheri_cap::MorelloCap;

use common::{corpus_sources, key_profiles};

/// The per-instruction fixpoint: `live_in(pc) = (⋃ live_in(succ) \ def)
/// ∪ uses`, swept from the last pc to the first until nothing changes.
fn naive_live_in(func: &IrFunc) -> Vec<Vec<u64>> {
    let n = func.code.len();
    let words = (func.n_regs as usize).div_ceil(64).max(1);
    let mut live_in = vec![vec![0u64; words]; n];
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            let mut row = vec![0u64; words];
            successors(&func.code, pc, |s| {
                if s < n {
                    for (r, l) in row.iter_mut().zip(&live_in[s]) {
                        *r |= l;
                    }
                }
            });
            if let Some(d) = def_of(&func.code[pc]) {
                row[d as usize / 64] &= !(1u64 << (d % 64));
            }
            for_each_use(&func.code[pc], |r| row[r as usize / 64] |= 1u64 << (r % 64));
            if row != live_in[pc] {
                live_in[pc] = row;
                changed = true;
            }
        }
    }
    live_in
}

/// Assert per-pc equality on every function of `prog`.
fn check_program(what: &str, prog: &IrProgram) {
    for f in &prog.funcs {
        let lv = Liveness::compute(f);
        for (pc, want) in naive_live_in(f).iter().enumerate() {
            assert_eq!(
                lv.live_in(pc),
                &want[..],
                "{what}: function {} pc {pc}: block-level liveness differs from the oracle",
                f.name
            );
        }
    }
}

/// Check every pipeline stage of one source under every compile key.
fn check_source(name: &str, src: &str) {
    for profile in key_profiles() {
        let Ok(prog) = compile_for::<MorelloCap>(src, &profile) else { continue };
        let what = |stage: &str| format!("{name} @ {} ({stage})", profile.name);
        let raw = ir::lower(&prog);
        check_program(&what("raw"), &raw);
        let mut promoted = raw.clone();
        ir::promote::promote(&mut promoted);
        check_program(&what("promoted"), &promoted);
        check_program(&what("optimised"), &ir::lower_opt(&prog));
        check_program(&what("fast"), &ir::lower_fast(&prog));
    }
}

#[test]
fn liveness_matches_the_oracle_on_the_corpus() {
    for (name, src) in corpus_sources() {
        check_source(&name, &src);
    }
}

fn add(dst: Reg, lhs: Reg, rhs: Reg) -> Inst {
    Inst::Binary {
        dst,
        op: BinOp::Add,
        ity: IntTy::Int,
        ty: TyId(0),
        derive: DeriveFrom::Left,
        lhs,
        rhs,
    }
}

/// `s = 0; i = 0; while (i < 10) { s += i; i += 1; } return s;` with the
/// sum and the constants in registers 64 and up (the second bitset word).
/// `s` is read at the loop head before the body redefines it, so its
/// liveness reaches the head only along the back edge.
#[test]
fn liveness_matches_the_oracle_on_a_wide_loop() {
    let code = vec![
        Inst::ConstInt { dst: 64, ity: IntTy::Int, v: 0 }, // s
        Inst::ConstInt { dst: 1, ity: IntTy::Int, v: 0 },  // i
        Inst::ConstInt { dst: 65, ity: IntTy::Int, v: 1 },
        Inst::ConstInt { dst: 66, ity: IntTy::Int, v: 10 },
        // b1 (pc 4): loop head
        Inst::Binary {
            dst: 67,
            op: BinOp::Lt,
            ity: IntTy::Int,
            ty: TyId(0),
            derive: DeriveFrom::Left,
            lhs: 1,
            rhs: 66,
        },
        Inst::JumpIfFalse { src: 67, target: 10 },
        // b2 (pc 6): body
        add(64, 64, 1),
        add(1, 1, 65),
        Inst::ConstInt { dst: 70, ity: IntTy::Int, v: 5 }, // dead
        Inst::Jump { target: 4 },
        // b3 (pc 10): exit
        Inst::Ret { src: 64 },
    ];
    let func = IrFunc {
        name: "wide".into(),
        is_main: true,
        params: Vec::new(),
        n_slots: 0,
        n_regs: 71,
        code,
        block_pc: vec![0, 4, 6, 10],
        promoted: Vec::new(),
    };
    let lv = Liveness::compute(&func);
    assert_eq!(lv.live_in(0).len(), 2, "71 registers take two words");
    for (pc, want) in naive_live_in(&func).iter().enumerate() {
        assert_eq!(lv.live_in(pc), &want[..], "pc {pc}");
    }
    // The loop-carried facts the fixpoint must find.
    for r in [64, 1, 65, 66] {
        assert!(lv.is_live_in(4, r), "r{r} is live at the loop head");
        assert!(lv.is_live_in(9, r), "r{r} is live around the back edge");
    }
    assert!(!lv.is_live_in(4, 67) && !lv.is_live_in(6, 67), "the condition dies at its jump");
    assert!(!(0..11).any(|pc| lv.is_live_in(pc, 70)), "r70 is never read");
    assert!(!lv.live_after(&func.code, 8, 70));
}
