//! Trace-preserving peephole optimisation over linked bytecode.
//!
//! The engine-differential contract (ROADMAP item 1) pins the *event
//! trace*, not the instruction count: the VM may execute fewer
//! instructions than the tree engine walks AST nodes, but every memory
//! effect — alloc, load, store, kill, intern — and every error must
//! happen identically. The passes here therefore only touch instructions
//! that are pure (no memory events, no statistics), infallible *or*
//! error-equivalent after the rewrite, and whose results are provably
//! unobservable afterwards:
//!
//! * **jump threading / jump-to-next elimination** — control-flow only;
//! * **pair fusion** — `BoolOf`/`ToBool` feeding a conditional jump reads
//!   the untested value directly (`truthy` is idempotent across both);
//!   adjacent `MemberShift`s over a dead intermediate combine their
//!   offsets (a pure address add; see the fusion site for why the
//!   intermediate representability check is preserved);
//! * **constant folding** — `ConstInt`/`ConstInt`/`Binary` triples (and
//!   `IntToInt`/`Unary` pairs) replicate `Interp::binary_int` exactly and
//!   fold **only** when the runtime path provably cannot raise UB — any
//!   possible `SignedOverflow`/`DivisionByZero`/`ShiftOutOfRange` leaves
//!   the instruction in place so the error (and its event position) is
//!   unchanged;
//! * **dead-register elimination** — deletes pure, infallible defs
//!   (`ConstInt`, `ConstFloat`, `Move`, `SetVoid`, `GlobalLoc`) whose
//!   destination is dead, established by the block-level liveness of
//!   [`super::liveness`].
//!
//! Fusion and dead-register elimination share one [`Liveness`] per round:
//! fusion marks its deletions without moving any code, the rows are
//! re-derived over the fused code (`Liveness::refill`; fusion never
//! changes a block's live-in), and dead-register elimination marks its
//! deletions in the same pass over the same pcs. One compaction then drops
//! both. The liveness is solved again only after the code moved.
//!
//! The only observable the passes change is the VM step counter, which is
//! not part of the differential contract (the engines already tick at
//! different granularities); a program can in principle move from "step
//! limit exceeded" to terminating, exactly as any VM speedup would.

use crate::ast::{BinOp, UnOp};
use crate::types::{int_binary, IntTy};

use super::liveness::{def_of, Liveness};
use super::{Inst, IrFunc, IrProgram};

/// Upper bound on optimisation rounds per function. Each round runs every
/// pass once and rebuilds the code; a round that changes nothing ends the
/// loop early. Two or three rounds reach the fixpoint in practice (a
/// fusion exposes a dead def, the next round deletes it).
const MAX_ROUNDS: usize = 4;

/// Optimise every function of a lowered program in place.
pub fn optimize(ir: &mut IrProgram) {
    for f in &mut ir.funcs {
        // The liveness of `f.code` as it stands, when still valid.
        let mut lv: Option<Liveness> = None;
        for _ in 0..MAX_ROUNDS {
            let threaded = thread_jumps(f);
            if threaded {
                lv = None;
            }
            let live = lv.get_or_insert_with(|| Liveness::compute(f));
            let mut keep = vec![true; f.code.len()];
            let fused = fuse_pairs(f, live, &mut keep);
            if fused {
                live.refill(&f.code, &keep);
            }
            let dead = delete_dead(f, live, &mut keep);
            if compact(f, &keep) {
                lv = None;
            }
            if !(threaded | fused | dead) {
                break;
            }
        }
    }
}

// ── Pass 1: jump threading ──────────────────────────────────────────────

/// Retarget jumps whose destination is an unconditional `Jump` (chains
/// followed with a hop bound as the cycle guard) and delete jumps to the
/// next instruction. Skipping a `Jump` skips only a `tick()`.
fn thread_jumps(func: &mut IrFunc) -> bool {
    // Each pc's unconditional jump target (`NO_JUMP` for any other
    // instruction), as the code stands on entry.
    const NO_JUMP: u32 = u32::MAX;
    let jump_to: Vec<u32> = func
        .code
        .iter()
        .map(|inst| match inst {
            Inst::Jump { target } => *target,
            _ => NO_JUMP,
        })
        .collect();
    let thread = |mut t: u32| -> u32 {
        for _ in 0..8 {
            match jump_to.get(t as usize) {
                Some(&next) if next != NO_JUMP && next != t => t = next,
                _ => break,
            }
        }
        t
    };
    let mut changed = false;
    for inst in &mut func.code {
        match inst {
            Inst::Jump { target }
            | Inst::JumpIfFalse { target, .. }
            | Inst::JumpIfTrue { target, .. } => {
                let t = thread(*target);
                if t != *target {
                    *target = t;
                    changed = true;
                }
            }
            Inst::SwitchInt { cases, end, .. } => {
                for (_, t) in cases.iter_mut() {
                    let tt = thread(*t);
                    if tt != *t {
                        *t = tt;
                        changed = true;
                    }
                }
                let tt = thread(*end);
                if tt != *end {
                    *end = tt;
                    changed = true;
                }
            }
            _ => {}
        }
    }
    // Delete `jump pc+1` (every lowered `if`/loop join emits one).
    let keep: Vec<bool> = func
        .code
        .iter()
        .enumerate()
        .map(|(pc, inst)| !matches!(inst, Inst::Jump { target } if *target as usize == pc + 1))
        .collect();
    changed | compact(func, &keep)
}

// ── Pass 2: adjacent-pair fusion and constant folding ───────────────────

/// Fuse producer/consumer pairs at adjacent pcs. Every rewrite requires
/// the consumer's pc not to be a jump target (so all paths through the
/// consumer run the producer first) and the producer's result to be dead
/// after the consumer (liveness), making the intermediate unobservable.
///
/// Marks the deleted producers in `keep` rather than compacting, and
/// decides every rewrite on `lv`, the liveness of the code on entry.
#[allow(clippy::too_many_lines)]
fn fuse_pairs(func: &mut IrFunc, lv: &Liveness, keep: &mut [bool]) -> bool {
    if func.code.is_empty() {
        return false;
    }
    // Jump targets are always block starts (a lowering invariant `link`
    // preserves), so the block table is the complete set of join points.
    let mut join = vec![false; func.code.len() + 1];
    for &b in &func.block_pc {
        join[b as usize] = true;
    }
    let is_join = |pc: usize| join[pc];
    let mut changed = false;
    for pc in 0..func.code.len() - 1 {
        if !keep[pc] || is_join(pc + 1) {
            continue;
        }
        match (&func.code[pc], &func.code[pc + 1]) {
            // `bool r; jump_if r` → `jump_if src`: the conditional jump
            // applies the same `truthy` the bool normalisation did, and
            // both read the operand through the same register access, so
            // values, errors and events are identical.
            (
                Inst::BoolOf { dst: d, src: s } | Inst::ToBool { dst: d, src: s },
                Inst::JumpIfFalse { src: js, target } | Inst::JumpIfTrue { src: js, target },
            ) if *js == *d && !lv.live_after(&func.code, pc + 1, *d) => {
                let (s, target) = (*s, *target);
                let neg = matches!(func.code[pc + 1], Inst::JumpIfFalse { .. });
                func.code[pc + 1] = if neg {
                    Inst::JumpIfFalse { src: s, target }
                } else {
                    Inst::JumpIfTrue { src: s, target }
                };
                keep[pc] = false;
                changed = true;
            }
            // `d1 = s .+ a; d2 = d1 .+ b` → `d2 = s .+ (a+b)`: the shift
            // is a pure address add (`member_shift` emits no events). The
            // intermediate `with_address` representability check is
            // subsumed: member offsets are non-negative and `a + b` is
            // required not to wrap, so the intermediate address lies
            // between the base and final addresses, inside the same
            // contiguous representable window whenever both endpoints are.
            (
                Inst::MemberShift { dst: d1, src: s, off: a },
                Inst::MemberShift { dst: d2, src: s2, off: b },
            ) if *s2 == *d1 && *s != *d1 && !lv.live_after(&func.code, pc + 1, *d1) => {
                if let Some(off) = a.checked_add(*b) {
                    func.code[pc + 1] = Inst::MemberShift { dst: *d2, src: *s, off };
                    keep[pc] = false;
                    changed = true;
                }
            }
            // `c1 = const; c2 = int.to c1` → `c2 = const.to wrapped`:
            // replicates `convert_int` (which for non-capability targets
            // is a plain wrap of the logical value).
            (
                Inst::ConstInt { dst: d1, ity, v },
                Inst::IntToInt { dst: d2, src, to },
            ) if *src == *d1
                && !ity.is_capability()
                && !to.is_capability()
                && !lv.live_after(&func.code, pc + 1, *d1) =>
            {
                let folded = to.wrap(ity.wrap(*v));
                func.code[pc + 1] = Inst::ConstInt { dst: *d2, ity: *to, v: folded };
                keep[pc] = false;
                changed = true;
            }
            // `c1 = const; r = op c1` → `r = const`: replicates
            // `unary_int`, skipping any operand that could raise UB.
            (
                Inst::ConstInt { dst: d1, ity: sity, v },
                Inst::Unary { dst: d2, op, ity, src },
            ) if *src == *d1
                && !sity.is_capability()
                && !ity.is_capability()
                && !lv.live_after(&func.code, pc + 1, *d1) =>
            {
                let a = sity.wrap(*v);
                let folded = match op {
                    UnOp::LogNot => Some((IntTy::Int, i128::from(a == 0))),
                    UnOp::Plus => Some((*sity, a)),
                    UnOp::Neg if ity.signed() && !ity.fits(-a) => None, // runtime UB
                    UnOp::Neg => Some((*ity, ity.wrap(-a))),
                    UnOp::BitNot => Some((*ity, ity.wrap(!a))),
                };
                if let Some((rty, rv)) = folded {
                    func.code[pc + 1] = Inst::ConstInt { dst: *d2, ity: rty, v: rv };
                    keep[pc] = false;
                    changed = true;
                }
            }
            _ => {}
        }
        // `c1; c2; r = c1 op c2` triples (needs a window of three).
        if pc + 2 < func.code.len() && keep[pc] && !is_join(pc + 1) && !is_join(pc + 2) {
            if let (
                Inst::ConstInt { dst: r1, ity: i1, v: v1 },
                Inst::ConstInt { dst: r2, ity: i2, v: v2 },
                Inst::Binary { dst, op, ity, lhs, rhs, .. },
            ) = (&func.code[pc], &func.code[pc + 1], &func.code[pc + 2])
            {
                if *lhs == *r1
                    && *rhs == *r2
                    && *r1 != *r2
                    && !i1.is_capability()
                    && !i2.is_capability()
                    && !ity.is_capability()
                {
                    let (a, b) = (i1.wrap(*v1), i2.wrap(*v2));
                    if let Some((rty, rv)) = fold_binary_int(*op, *ity, a, b) {
                        let (dst, r1, r2) = (*dst, *r1, *r2);
                        func.code[pc + 2] = Inst::ConstInt { dst, ity: rty, v: rv };
                        // The operand defs go too, if now unobservable.
                        if !lv.live_after(&func.code, pc + 2, r1) {
                            keep[pc] = false;
                        }
                        if !lv.live_after(&func.code, pc + 2, r2) {
                            keep[pc + 1] = false;
                        }
                        changed = true;
                    }
                }
            }
        }
    }
    changed
}

/// Fold a non-capability integer binary operation with the runtime's own
/// [`int_binary`]. Returns `None` whenever the runtime path raises UB (the
/// instruction then stays, so the UB fires at the same program point with
/// the same message).
fn fold_binary_int(op: BinOp, ity: IntTy, a: i128, b: i128) -> Option<(IntTy, i128)> {
    let v = int_binary(op, ity, a, b).ok()?;
    Some((if op.is_comparison() { IntTy::Int } else { ity }, v))
}

// ── Pass 3: dead-register elimination ───────────────────────────────────

/// Mark for deletion the pure, infallible, event-free defs whose
/// destination is dead. Fallible producers (`SlotLoc`, `Load`, `BoolOf`,
/// …) and event sources (`StrLit` interns) must stay even when dead: their
/// error or event is the observable. Runs on the code fusion left behind,
/// with fusion's deletions still marked in `keep` and `lv` refilled for
/// them, so every decision equals the one on the compacted code.
fn delete_dead(func: &IrFunc, lv: &Liveness, keep: &mut [bool]) -> bool {
    let mut changed = false;
    for (pc, inst) in func.code.iter().enumerate() {
        let deletable = matches!(
            inst,
            Inst::ConstInt { .. }
                | Inst::ConstFloat { .. }
                | Inst::Move { .. }
                | Inst::SetVoid { .. }
                | Inst::GlobalLoc { .. }
        );
        if keep[pc] && deletable {
            let dst = def_of(inst).expect("deletable insts all define");
            if !lv.live_after(&func.code, pc, dst) {
                keep[pc] = false;
                changed = true;
            }
        }
    }
    changed
}

// ── Code compaction ─────────────────────────────────────────────────────

/// Drop the instructions marked `false` in `keep`, remapping jump targets
/// and the block table. A deleted instruction always behaves as a
/// fall-through (that is what made it deletable), so a target pointing at
/// one maps to the next surviving pc.
pub(crate) fn compact(func: &mut IrFunc, keep: &[bool]) -> bool {
    if keep.iter().all(|&k| k) {
        return false;
    }
    // new_pc[i] = how many kept instructions precede i; doubles as the
    // "next survivor" map for deleted targets. One extra slot so targets
    // one past the end (empty trailing blocks) remap too.
    let mut new_pc = Vec::with_capacity(keep.len() + 1);
    let mut n = 0u32;
    for &k in keep {
        new_pc.push(n);
        n += u32::from(k);
    }
    new_pc.push(n);
    let mut kept = keep.iter();
    func.code.retain_mut(|inst| {
        let k = *kept.next().expect("one keep flag per instruction");
        if k {
            match inst {
                Inst::Jump { target }
                | Inst::JumpIfFalse { target, .. }
                | Inst::JumpIfTrue { target, .. } => *target = new_pc[*target as usize],
                Inst::SwitchInt { cases, end, .. } => {
                    for (_, t) in cases.iter_mut() {
                        *t = new_pc[*t as usize];
                    }
                    *end = new_pc[*end as usize];
                }
                _ => {}
            }
        }
        k
    });
    for pc in &mut func.block_pc {
        *pc = new_pc[*pc as usize];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Reg;
    use crate::tast::DeriveFrom;
    use crate::types::Ty;
    use crate::ir::TyId;

    /// A one-function program around hand-written code, so each pattern
    /// can be tested in isolation from the lowering.
    fn func(code: Vec<Inst>, n_regs: u32, block_pc: Vec<u32>) -> IrProgram {
        IrProgram {
            funcs: vec![IrFunc {
                name: "main".into(),
                is_main: true,
                params: Vec::new(),
                n_slots: 0,
                n_regs,
                code,
                block_pc,
                promoted: Vec::new(),
            }],
            func_index: std::iter::once(("main".to_string(), 0)).collect(),
            types: vec![Ty::Int(IntTy::Int)],
            strs: Vec::new(),
            globals: Vec::new(),
            main: Some(0),
        }
    }

    fn binary(dst: Reg, op: BinOp, lhs: Reg, rhs: Reg) -> Inst {
        Inst::Binary {
            dst,
            op,
            ity: IntTy::Int,
            ty: TyId(0),
            derive: DeriveFrom::Left,
            lhs,
            rhs,
        }
    }

    #[test]
    fn const_triple_folds_and_operands_die() {
        let mut ir = func(
            vec![
                Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 7 },
                Inst::ConstInt { dst: 1, ity: IntTy::Int, v: 5 },
                binary(2, BinOp::Add, 0, 1),
                Inst::Ret { src: 2 },
            ],
            3,
            vec![0],
        );
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert_eq!(code.len(), 2, "{code:?}");
        assert!(
            matches!(code[0], Inst::ConstInt { dst: 2, ity: IntTy::Int, v: 12 }),
            "{code:?}"
        );
    }

    #[test]
    fn possible_signed_overflow_is_never_folded() {
        // i32::MAX + 1 raises SignedOverflow at runtime: the Binary (and
        // both operands it reads) must survive untouched.
        let code = vec![
            Inst::ConstInt { dst: 0, ity: IntTy::Int, v: i128::from(i32::MAX) },
            Inst::ConstInt { dst: 1, ity: IntTy::Int, v: 1 },
            binary(2, BinOp::Add, 0, 1),
            Inst::Ret { src: 2 },
        ];
        let mut ir = func(code.clone(), 3, vec![0]);
        optimize(&mut ir);
        assert_eq!(ir.funcs[0].code.len(), code.len());
        // Same for division by zero and out-of-range shifts.
        for op in [BinOp::Div, BinOp::Rem] {
            assert_eq!(fold_binary_int(op, IntTy::Int, 1, 0), None);
        }
        assert_eq!(fold_binary_int(BinOp::Shl, IntTy::Int, 1, 32), None);
        assert_eq!(fold_binary_int(BinOp::Shr, IntTy::Int, 1, -1), None);
        // ... while the in-range forms fold to the wrapped result.
        assert_eq!(
            fold_binary_int(BinOp::Add, IntTy::UInt, (1 << 32) - 1, 1),
            Some((IntTy::UInt, 0))
        );
        assert_eq!(
            fold_binary_int(BinOp::Lt, IntTy::Int, -1, 0),
            Some((IntTy::Int, 1))
        );
    }

    #[test]
    fn member_shift_chains_fuse_over_dead_intermediate() {
        let mut ir = func(
            vec![
                Inst::GlobalLoc { dst: 0, g: super::super::GlobalId(0) },
                Inst::MemberShift { dst: 1, src: 0, off: 8 },
                Inst::MemberShift { dst: 2, src: 1, off: 4 },
                Inst::Load { dst: 3, loc: 2, ty: TyId(0) },
                Inst::Ret { src: 3 },
            ],
            4,
            vec![0],
        );
        ir.globals.push("g".into());
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert!(
            code.iter()
                .any(|i| matches!(i, Inst::MemberShift { src: 0, off: 12, .. })),
            "{code:?}"
        );
        assert_eq!(
            code.iter()
                .filter(|i| matches!(i, Inst::MemberShift { .. }))
                .count(),
            1,
            "{code:?}"
        );
    }

    #[test]
    fn bool_feeding_branch_fuses() {
        let mut ir = func(
            vec![
                Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 3 },
                Inst::BoolOf { dst: 1, src: 0 },
                Inst::JumpIfFalse { src: 1, target: 4 },
                Inst::Ret { src: 0 },
                Inst::RetFall,
            ],
            2,
            vec![0, 4],
        );
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert!(!code.iter().any(|i| matches!(i, Inst::BoolOf { .. })), "{code:?}");
        assert!(
            code.iter()
                .any(|i| matches!(i, Inst::JumpIfFalse { src: 0, .. })),
            "{code:?}"
        );
    }

    #[test]
    fn dead_defs_die_live_and_fallible_ones_stay() {
        let mut ir = func(
            vec![
                Inst::ConstInt { dst: 0, ity: IntTy::Int, v: 1 },  // dead
                Inst::ConstFloat { dst: 1, fty: crate::types::FloatTy::F64, v: 0.5 }, // dead
                Inst::SlotLoc { dst: 2, slot: 0, name: super::super::StrId(0) }, // fallible: stays
                Inst::ConstInt { dst: 3, ity: IntTy::Int, v: 9 },  // live via Ret
                Inst::Ret { src: 3 },
            ],
            4,
            vec![0],
        );
        ir.strs.push("x".into());
        ir.funcs[0].n_slots = 1;
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        assert_eq!(code.len(), 3, "{code:?}");
        assert!(matches!(code[0], Inst::SlotLoc { .. }), "{code:?}");
    }

    #[test]
    fn jumps_thread_through_trampolines_and_to_next_die() {
        let mut ir = func(
            vec![
                Inst::JumpIfTrue { src: 0, target: 3 }, // → threads to 4
                Inst::Jump { target: 2 },               // jump-to-next: dies
                Inst::RetFall,
                Inst::Jump { target: 4 },               // trampoline
                Inst::RetVoid,
            ],
            1,
            vec![0, 1, 2, 3, 4],
        );
        optimize(&mut ir);
        let code = &ir.funcs[0].code;
        // The jump-to-next is gone; the conditional jump lands on RetVoid.
        assert!(matches!(code[0], Inst::JumpIfTrue { target, .. }
            if matches!(code[target as usize], Inst::RetVoid)), "{code:?}");
    }
}
