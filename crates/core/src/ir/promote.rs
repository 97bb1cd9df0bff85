//! Register promotion: the rewrite half of the fast mode (DESIGN.md §12).
//!
//! For every local [`super::escape`] proved never-addressed, this pass
//! elides the local's entire memory life cycle — `AllocLocal`, the
//! initialising `Store`, `BindSlot`, every `SlotLoc`, and the frame
//! kill-list entry — and keeps the value in a fresh virtual register
//! instead:
//!
//! | memory form                  | register form                    |
//! |------------------------------|----------------------------------|
//! | `AllocLocal` / `BindSlot` / `SlotLoc` | *(deleted)*             |
//! | `Load {dst, loc}`            | `Move {dst, src: R}`             |
//! | `Store {loc, src}`           | `Move {dst: R, src}`             |
//! | `IncDec {loc, …}`            | `RegIncDec {reg: R, …}`          |
//! | `AssignOpInt {loc, …}`       | `RegAssignOpInt {reg: R, …}`     |
//! | `AssignOpFloat {loc, …}`     | `RegAssignOpFloat {reg: R, …}`   |
//! | `PtrAssignAdd {loc, …}`      | `RegPtrAssignAdd {reg: R, …}`    |
//!
//! Promoted *parameters* keep their [`super::IrParam`] entry but are
//! recorded in [`super::IrFunc::promoted`]; the VM passes their argument
//! value straight into the register instead of allocating a parameter
//! object.
//!
//! The register forms run the identical `Interp` helpers (conversions,
//! UB checks, capability derivation) as the memory forms — only the
//! `load_value`/`store_value` round-trip through `CheriMemory` is gone.
//! What this pass may change, by design, is the *event trace* and memory
//! statistics (allocations, loads, stores, kills for promoted locals
//! disappear) and — like any real register allocator — the addresses the
//! bump allocator hands to the remaining objects. What it must never
//! change is the outcome, stdout and exit code; `tests/
//! fast_mode_differential.rs` pins that over the oracle corpus, and the
//! analysis marking a local as escaping guarantees it is never elided
//! (a QC property in the same test).
//!
//! The pass is idempotent: a promoted local has no remaining
//! `AllocLocal`/`BindSlot`/`SlotLoc`, so a second run finds nothing to
//! promote (the slot is then simply unused).

use super::escape::{analyze_func, FuncAnalysis};
use super::peephole::compact;
use super::{Inst, IrFunc, IrProgram, Reg};

/// Promote every provably never-addressed scalar local of every function,
/// in place. Runs on the raw lowering, before the peephole passes.
pub fn promote(ir: &mut IrProgram) {
    let analyses: Vec<FuncAnalysis> = ir.funcs.iter().map(|f| analyze_func(ir, f)).collect();
    for (func, analysis) in ir.funcs.iter_mut().zip(analyses) {
        promote_func(func, &analysis);
    }
}

fn promote_func(func: &mut IrFunc, a: &FuncAnalysis) {
    // Fresh registers, one per promoted slot, in slot order. Slots already
    // promoted by an earlier run keep their register: a promoted parameter
    // still looks promotable on re-analysis (its `IrParam` survives with no
    // remaining accesses), and re-promoting it would not be idempotent.
    let mut next = func.n_regs;
    let promo: Vec<(u32, Reg)> = a
        .decisions
        .iter()
        .filter(|d| d.promoted && !func.promoted.iter().any(|&(s, _)| s == d.slot))
        .map(|d| {
            let r = next;
            next += 1;
            (d.slot, r)
        })
        .collect();
    if promo.is_empty() {
        return;
    }
    let reg_of = |slot: u32| promo.iter().find(|&&(s, _)| s == slot).map(|&(_, r)| r);
    // The promoted register for the loc operand `r` at `pc`, if `r`
    // locates a promoted slot there.
    let promoted_loc = |pc: usize, r: Reg| a.slot_at(pc, r).and_then(reg_of);

    let mut keep = vec![true; func.code.len()];
    for (pc, (kept, inst)) in keep.iter_mut().zip(func.code.iter_mut()).enumerate() {
        let new = match &*inst {
            Inst::AllocLocal { .. } => {
                match a.site_slot.get(&(pc as u32)).copied().and_then(reg_of) {
                    Some(_) => {
                        *kept = false;
                        continue;
                    }
                    None => continue,
                }
            }
            Inst::BindSlot { slot, .. } | Inst::SlotLoc { slot, .. } => {
                match reg_of(*slot) {
                    Some(_) => {
                        *kept = false;
                        continue;
                    }
                    None => continue,
                }
            }
            Inst::Load { dst, loc, .. } => match promoted_loc(pc, *loc) {
                Some(r) => Inst::Move { dst: *dst, src: r },
                None => continue,
            },
            Inst::Store { loc, src, .. } => match promoted_loc(pc, *loc) {
                Some(r) => Inst::Move { dst: r, src: *src },
                None => continue,
            },
            Inst::IncDec { dst, loc, inc, prefix, elem, .. } => match promoted_loc(pc, *loc) {
                Some(r) => Inst::RegIncDec {
                    dst: *dst,
                    reg: r,
                    inc: *inc,
                    prefix: *prefix,
                    elem: *elem,
                },
                None => continue,
            },
            Inst::AssignOpInt { dst, loc, lt, ct, op, derive, cur, rhs, .. } => {
                match promoted_loc(pc, *loc) {
                    Some(r) => Inst::RegAssignOpInt {
                        dst: *dst,
                        reg: r,
                        lt: *lt,
                        ct: *ct,
                        op: *op,
                        derive: *derive,
                        cur: *cur,
                        rhs: *rhs,
                    },
                    None => continue,
                }
            }
            Inst::AssignOpFloat { dst, loc, ty, common, op, cur, rhs } => {
                match promoted_loc(pc, *loc) {
                    Some(r) => Inst::RegAssignOpFloat {
                        dst: *dst,
                        reg: r,
                        ty: *ty,
                        common: *common,
                        op: *op,
                        cur: *cur,
                        rhs: *rhs,
                    },
                    None => continue,
                }
            }
            Inst::PtrAssignAdd { dst, loc, ty, cur, idx, elem, neg } => {
                match promoted_loc(pc, *loc) {
                    Some(r) => Inst::RegPtrAssignAdd {
                        dst: *dst,
                        reg: r,
                        ty: *ty,
                        cur: *cur,
                        idx: *idx,
                        elem: *elem,
                        neg: *neg,
                    },
                    None => continue,
                }
            }
            _ => continue,
        };
        *inst = new;
    }

    // No surviving instruction may still consume a promoted location: the
    // escape analysis only promotes locals whose every use is one of the
    // rewritten shapes above.
    #[cfg(debug_assertions)]
    for (pc, (kept, inst)) in keep.iter().zip(&func.code).enumerate() {
        if !kept {
            continue;
        }
        super::liveness::for_each_use(inst, |r| {
            if (r as usize) < func.n_regs as usize {
                debug_assert!(
                    promoted_loc(pc, r).is_none(),
                    "unrewritten use of promoted slot at pc {pc}: {inst:?}",
                );
            }
        });
    }

    compact(func, &keep);
    func.n_regs = next;
    func.promoted.extend(promo);
    func.promoted.sort_unstable();
}

#[cfg(test)]
mod tests {
    use super::super::{lower, lower_fast, Inst};

    fn fast_ir(src: &str) -> super::IrProgram {
        let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
        lower_fast(&prog)
    }

    #[test]
    fn promoted_locals_leave_no_memory_traffic() {
        let ir = fast_ir(
            "int main(void) { long s = 0; for (int i = 0; i < 9; i++) s += i; return (int)s; }",
        );
        let main = &ir.funcs[ir.main.expect("main") as usize];
        assert_eq!(main.promoted.len(), 2, "{:?}", main.promoted);
        for inst in &main.code {
            assert!(
                !matches!(
                    inst,
                    Inst::AllocLocal { .. }
                        | Inst::SlotLoc { .. }
                        | Inst::BindSlot { .. }
                        | Inst::Load { .. }
                        | Inst::Store { .. }
                        | Inst::IncDec { .. }
                        | Inst::AssignOpInt { .. }
                ),
                "memory traffic survived promotion: {inst:?}"
            );
        }
    }

    #[test]
    fn escaping_locals_keep_their_allocation() {
        let ir = fast_ir("int main(void) { int x = 1; int *p = &x; return *p; }");
        let main = &ir.funcs[ir.main.expect("main") as usize];
        // `x` stays in memory (`p` is promoted).
        assert!(
            main.code.iter().any(|i| matches!(i, Inst::AllocLocal { .. })),
            "escaping local lost its allocation",
        );
        assert_eq!(main.promoted.len(), 1, "{:?}", main.promoted);
    }

    #[test]
    fn promoted_parameters_are_recorded() {
        let ir = fast_ir(
            "int add(int a, int b) { return a + b; } int main(void) { return add(2, 3) - 5; }",
        );
        let add = &ir.funcs[*ir.func_index.get("add").expect("add") as usize];
        assert_eq!(add.promoted.len(), 2, "{:?}", add.promoted);
        assert_eq!(add.params.len(), 2);
    }

    /// Promotion is idempotent: running it a second time (plus the
    /// peephole fixpoint) changes nothing.
    #[test]
    fn promotion_is_idempotent() {
        let src = "
            int scale(int f, int x) { int acc = 0; while (x-- > 0) acc += f; return acc; }
            int main(void) {
              int t = 0;
              for (int k = 0; k < 5; k++) t += scale(k, 3);
              int *p = &t;
              return *p;
            }";
        let prog = crate::compile(src, &crate::Profile::cerberus()).expect("compiles");
        let mut once = lower(&prog);
        super::promote(&mut once);
        let mut twice = once.clone();
        super::promote(&mut twice);
        assert_eq!(once.render(), twice.render());
        let promoted_once: Vec<_> = once.funcs.iter().map(|f| f.promoted.clone()).collect();
        let promoted_twice: Vec<_> = twice.funcs.iter().map(|f| f.promoted.clone()).collect();
        assert_eq!(promoted_once, promoted_twice);
    }
}
