//! Register liveness over lowered bytecode: the one backward dataflow the
//! peephole passes ([`super::peephole`]) and the escape analysis
//! ([`super::escape`]) share.
//!
//! The result is a `live_in` row per pc, `words` bitset words each, in one
//! flat `Vec<u64>`. One backward scan over the code fills it, last pc
//! first: a fall-through carries the running set on, and at a jump or a
//! return the set restarts from the union of the successors' rows. In
//! loop-free code every successor lies later and is already filled, so the
//! scan alone is exact.
//!
//! A jump that leads backwards reaches a row the scan has not filled yet.
//! Functions with one first solve the fixpoint over basic blocks found in
//! the code (pc 0, every jump target, every pc after a jump or a return):
//! per block, the registers read before any write (`gen`) and those
//! written (`kill`); then `in(B) = gen(B) ∪ (out(B) \ kill(B))` with
//! `out(B) = ⋃ in(S)` over the successors, swept from the last block to the
//! first until nothing changes. Each block's `in` is written into its
//! first pc's row, where the scan finds it along the back edge.
//!
//! In a one-word function (at most 64 registers; no function of the
//! Table-1 tests or of the progen programs the tests check has more than
//! 48) the running set is a single word on the stack, and solving
//! allocates only the rows. Both paths
//! reach the least fixpoint an instruction-level iteration reaches:
//! `tests/ir_liveness.rs` checks every pc against one.

use super::{Inst, IrFunc, Reg};

/// Visit every register an instruction *reads*. For the register-promoted
/// finishers the promoted register itself is visited as a use even where
/// the finisher only writes it: the register is the local's storage, and
/// keeping it live is the conservative (sound) direction for every
/// consumer of this function.
pub fn for_each_use(inst: &Inst, mut f: impl FnMut(Reg)) {
    match inst {
        Inst::ConstInt { .. }
        | Inst::ConstFloat { .. }
        | Inst::StrLit { .. }
        | Inst::FuncAddr { .. }
        | Inst::SetVoid { .. }
        | Inst::SlotLoc { .. }
        | Inst::GlobalLoc { .. }
        | Inst::Jump { .. }
        | Inst::RetVoid
        | Inst::RetFall
        | Inst::AllocLocal { .. }
        | Inst::Unsupported { .. } => {}
        Inst::Move { src, .. }
        | Inst::BoolOf { src, .. }
        | Inst::DerefLoc { src, .. }
        | Inst::MemberShift { src, .. }
        | Inst::Unary { src, .. }
        | Inst::IntToInt { src, .. }
        | Inst::PtrToInt { src, .. }
        | Inst::IntToPtr { src, .. }
        | Inst::PtrToPtr { src, .. }
        | Inst::IntToFloat { src, .. }
        | Inst::FloatToInt { src, .. }
        | Inst::FloatToFloat { src, .. }
        | Inst::ToBool { src, .. }
        | Inst::JumpIfFalse { src, .. }
        | Inst::JumpIfTrue { src, .. }
        | Inst::SwitchInt { src, .. }
        | Inst::Ret { src }
        | Inst::FreezeLoc { src, .. }
        | Inst::BindSlot { src, .. } => f(*src),
        Inst::Load { loc, .. } | Inst::IncDec { loc, .. } | Inst::InitStr { loc, .. } => f(*loc),
        Inst::Store { loc, src, .. } => {
            f(*loc);
            f(*src);
        }
        Inst::AddrOf { loc, .. } => f(*loc),
        Inst::MemcpyAgg { dst, src, .. } => {
            // Both operands are *reads*: the registers hold the two
            // locations of the copy.
            f(*dst);
            f(*src);
        }
        Inst::OptMemcpy { dst, src, n } => {
            f(*dst);
            f(*src);
            f(*n);
        }
        Inst::Binary { lhs, rhs, .. } => {
            f(*lhs);
            f(*rhs);
        }
        Inst::PtrAdd { ptr, idx, .. } => {
            f(*ptr);
            f(*idx);
        }
        Inst::PtrDiff { a, b, .. } | Inst::PtrCmp { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Inst::AssignOpInt { loc, cur, rhs, .. } | Inst::AssignOpFloat { loc, cur, rhs, .. } => {
            f(*loc);
            f(*cur);
            f(*rhs);
        }
        Inst::PtrAssignAdd { loc, cur, idx, .. } => {
            f(*loc);
            f(*cur);
            f(*idx);
        }
        Inst::RegIncDec { reg, .. } => f(*reg),
        Inst::RegAssignOpInt { reg, cur, rhs, .. }
        | Inst::RegAssignOpFloat { reg, cur, rhs, .. } => {
            f(*reg);
            f(*cur);
            f(*rhs);
        }
        Inst::RegPtrAssignAdd { reg, cur, idx, .. } => {
            f(*reg);
            f(*cur);
            f(*idx);
        }
        Inst::CallDirect { args, .. } => {
            for &r in args {
                f(r);
            }
        }
        Inst::CallIndirect { callee, args, .. } => {
            f(*callee);
            for &r in args {
                f(r);
            }
        }
        Inst::CallBuiltin { args, .. } => {
            for &(r, _) in args {
                f(r);
            }
        }
    }
}

/// The register an instruction *writes*, if any. The register-promoted
/// finishers write two registers (`dst` and the promoted `reg`); only
/// `dst` is reported — a missing kill merely over-approximates liveness,
/// which is sound for fusion and dead-code decisions.
#[must_use]
pub fn def_of(inst: &Inst) -> Option<Reg> {
    match inst {
        Inst::ConstInt { dst, .. }
        | Inst::ConstFloat { dst, .. }
        | Inst::StrLit { dst, .. }
        | Inst::FuncAddr { dst, .. }
        | Inst::Move { dst, .. }
        | Inst::BoolOf { dst, .. }
        | Inst::SetVoid { dst }
        | Inst::SlotLoc { dst, .. }
        | Inst::GlobalLoc { dst, .. }
        | Inst::DerefLoc { dst, .. }
        | Inst::MemberShift { dst, .. }
        | Inst::Load { dst, .. }
        | Inst::AddrOf { dst, .. }
        | Inst::Binary { dst, .. }
        | Inst::Unary { dst, .. }
        | Inst::PtrAdd { dst, .. }
        | Inst::PtrDiff { dst, .. }
        | Inst::PtrCmp { dst, .. }
        | Inst::IncDec { dst, .. }
        | Inst::AssignOpInt { dst, .. }
        | Inst::AssignOpFloat { dst, .. }
        | Inst::PtrAssignAdd { dst, .. }
        | Inst::IntToInt { dst, .. }
        | Inst::PtrToInt { dst, .. }
        | Inst::IntToPtr { dst, .. }
        | Inst::PtrToPtr { dst, .. }
        | Inst::IntToFloat { dst, .. }
        | Inst::FloatToInt { dst, .. }
        | Inst::FloatToFloat { dst, .. }
        | Inst::ToBool { dst, .. }
        | Inst::CallDirect { dst, .. }
        | Inst::CallIndirect { dst, .. }
        | Inst::CallBuiltin { dst, .. }
        | Inst::AllocLocal { dst, .. }
        | Inst::FreezeLoc { dst, .. }
        | Inst::RegIncDec { dst, .. }
        | Inst::RegAssignOpInt { dst, .. }
        | Inst::RegAssignOpFloat { dst, .. }
        | Inst::RegPtrAssignAdd { dst, .. } => Some(*dst),
        Inst::Store { .. }
        | Inst::MemcpyAgg { .. }
        | Inst::OptMemcpy { .. }
        | Inst::Jump { .. }
        | Inst::JumpIfFalse { .. }
        | Inst::JumpIfTrue { .. }
        | Inst::SwitchInt { .. }
        | Inst::Ret { .. }
        | Inst::RetVoid
        | Inst::RetFall
        | Inst::BindSlot { .. }
        | Inst::InitStr { .. }
        | Inst::Unsupported { .. } => None,
    }
}

/// Successor pcs of the instruction at `pc`. Error exits are not edges:
/// no register value is observable past an error (the unwinder only runs
/// kills), so liveness may ignore them. A successor may be `code.len()`
/// (a jump to an empty trailing block); consumers ignore it.
pub fn successors(code: &[Inst], pc: usize, mut f: impl FnMut(usize)) {
    match &code[pc] {
        Inst::Jump { target } => f(*target as usize),
        Inst::JumpIfFalse { target, .. } | Inst::JumpIfTrue { target, .. } => {
            f(pc + 1);
            f(*target as usize);
        }
        Inst::SwitchInt { cases, end, .. } => {
            for (_, t) in &**cases {
                f(*t as usize);
            }
            f(*end as usize);
        }
        Inst::Ret { .. } | Inst::RetVoid | Inst::RetFall | Inst::Unsupported { .. } => {}
        _ => {
            if pc + 1 < code.len() {
                f(pc + 1);
            }
        }
    }
}

/// Does the instruction end a basic block (a jump or a return)? Every
/// other instruction falls through to the next pc and nowhere else.
fn ends_block(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Jump { .. }
            | Inst::JumpIfFalse { .. }
            | Inst::JumpIfTrue { .. }
            | Inst::SwitchInt { .. }
            | Inst::Ret { .. }
            | Inst::RetVoid
            | Inst::RetFall
            | Inst::Unsupported { .. }
    )
}

/// Does some jump lead backwards, to a pc at or before its own? Only such
/// an edge reaches a pc that a last-to-first scan has not filled yet.
fn has_back_edge(code: &[Inst]) -> bool {
    code.iter().enumerate().any(|(pc, inst)| match inst {
        Inst::Jump { target }
        | Inst::JumpIfFalse { target, .. }
        | Inst::JumpIfTrue { target, .. } => *target as usize <= pc,
        Inst::SwitchInt { cases, end, .. } => {
            *end as usize <= pc || cases.iter().any(|(_, t)| *t as usize <= pc)
        }
        _ => false,
    })
}

/// The block leaders of `code`, ascending: pc 0, every in-range jump
/// target, and every pc after a jump or a return. Every successor of a
/// block's last instruction is a leader.
fn leaders(code: &[Inst]) -> Vec<u32> {
    let n = code.len();
    let mut lead = vec![false; n + 1];
    lead[0] = true;
    for (pc, inst) in code.iter().enumerate() {
        if ends_block(inst) {
            successors(code, pc, |s| lead[s.min(n)] = true);
            lead[pc + 1] = true;
        }
    }
    (0..n).filter(|&pc| lead[pc]).map(|pc| pc as u32).collect()
}

/// Apply one instruction's transfer function backwards:
/// `live = (live \ def) ∪ uses`.
#[inline]
fn step(inst: &Inst, live: &mut [u64]) {
    if let Some(d) = def_of(inst) {
        live[d as usize / 64] &= !(1u64 << (d % 64));
    }
    for_each_use(inst, |r| live[r as usize / 64] |= 1u64 << (r % 64));
}

/// Per-pc register liveness, as a dense bitset matrix. `live_after(pc)`
/// is the set of registers whose current value may still be read on some
/// path out of `pc` — the condition under which a def at `pc` (or an
/// intermediate of a fused pair ending at `pc`) is unobservable.
pub struct Liveness {
    /// Bitset words per pc.
    words: usize,
    /// `live_in` per pc, `words` each.
    live_in: Vec<u64>,
}

impl Liveness {
    /// Solve liveness for `func`'s code.
    #[must_use]
    pub fn compute(func: &IrFunc) -> Liveness {
        let code = &func.code;
        let words = (func.n_regs as usize).div_ceil(64).max(1);
        let mut lv = Liveness { words, live_in: vec![0u64; code.len() * words] };
        if has_back_edge(code) {
            lv.seed_loops(code);
        }
        lv.fill(code, None);
        lv
    }

    /// Solve the fixpoint over basic blocks and write each block's
    /// live-in into its leader's row, where [`Self::fill`] finds it when
    /// it reaches a back edge.
    fn seed_loops(&mut self, code: &[Inst]) {
        let (n, w) = (code.len(), self.words);
        let starts = leaders(code);
        let nb = starts.len();
        let range = |b: usize| (starts[b] as usize, starts.get(b + 1).map_or(n, |&s| s as usize));
        // Per block: the uses not preceded by a def (`gen`), and the defs.
        let mut gen = vec![0u64; nb * w];
        let mut kill = vec![0u64; nb * w];
        for b in 0..nb {
            let (lo, hi) = range(b);
            let g = &mut gen[b * w..(b + 1) * w];
            let k = &mut kill[b * w..(b + 1) * w];
            for inst in code[lo..hi].iter().rev() {
                step(inst, g);
                if let Some(d) = def_of(inst) {
                    k[d as usize / 64] |= 1u64 << (d % 64);
                }
            }
        }
        // Sweep the blocks last to first until no live-in changes.
        let mut block_in = vec![0u64; nb * w];
        let mut out = vec![0u64; w];
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..nb).rev() {
                out.fill(0);
                successors(code, range(b).1 - 1, |s| {
                    if s < n {
                        let sb = starts.binary_search(&(s as u32)).expect("a leader");
                        for (o, i) in out.iter_mut().zip(&block_in[sb * w..(sb + 1) * w]) {
                            *o |= i;
                        }
                    }
                });
                for (i, o) in out.iter().enumerate() {
                    let v = gen[b * w + i] | (o & !kill[b * w + i]);
                    changed |= block_in[b * w + i] != v;
                    block_in[b * w + i] = v;
                }
            }
        }
        for (b, &lo) in starts.iter().enumerate() {
            let lo = lo as usize;
            self.live_in[lo * w..(lo + 1) * w].copy_from_slice(&block_in[b * w..(b + 1) * w]);
        }
    }

    /// Fill every row by one backward scan, last pc first. A fall-through
    /// carries the running set on; at a jump or a return it restarts from
    /// the successors' rows: rows the scan has already filled, or, along a
    /// back edge, the block live-ins [`Self::seed_loops`] wrote. An
    /// instruction `keep` marks `false` counts as deleted: its row is the
    /// row after it.
    fn fill(&mut self, code: &[Inst], keep: Option<&[bool]>) {
        let w = self.words;
        let mut one = [0u64; 1];
        let mut wide = Vec::new();
        let live: &mut [u64] = if w == 1 {
            &mut one
        } else {
            wide.resize(w, 0);
            &mut wide
        };
        for (pc, inst) in code.iter().enumerate().rev() {
            if ends_block(inst) {
                live.fill(0);
                successors(code, pc, |s| {
                    if s < code.len() {
                        for (i, l) in live.iter_mut().enumerate() {
                            *l |= self.live_in[s * w + i];
                        }
                    }
                });
            }
            if keep.is_none_or(|k| k[pc]) {
                step(inst, live);
            }
            for (i, l) in live.iter().enumerate() {
                self.live_in[pc * w + i] = *l;
            }
        }
    }

    /// Re-derive the rows after in-place rewrites of the code they were
    /// solved for, with the instructions `keep` marks `false` deleted.
    /// Valid only for rewrites that change no block's live-in, so that the
    /// block fixpoint need not run again: the peephole's fusions only
    /// change what happens to an intermediate that is dead afterwards.
    pub(crate) fn refill(&mut self, code: &[Inst], keep: &[bool]) {
        #[cfg(debug_assertions)]
        let leader_rows = {
            let mut rows = Vec::new();
            for pc in (0..code.len()).filter(|&pc| ends_block(&code[pc])) {
                successors(code, pc, |s| {
                    if s < code.len() {
                        rows.push((s, self.live_in(s).to_vec()));
                    }
                });
            }
            rows
        };
        self.fill(code, Some(keep));
        #[cfg(debug_assertions)]
        for (s, row) in leader_rows {
            assert_eq!(row, self.live_in(s), "a rewrite changed the live-in at {s}");
        }
    }

    /// The `live_in` row of `pc`: bit `r % 64` of word `r / 64` is set when
    /// register `r`'s value may be read on some path from `pc` on.
    #[must_use]
    pub fn live_in(&self, pc: usize) -> &[u64] {
        &self.live_in[pc * self.words..(pc + 1) * self.words]
    }

    /// Is `r`'s value possibly read on some path *from* `pc` (inclusive)?
    #[must_use]
    pub fn is_live_in(&self, pc: usize, r: Reg) -> bool {
        self.live_in[pc * self.words + r as usize / 64] >> (r % 64) & 1 != 0
    }

    /// Is `r`'s value possibly read on some path *out of* `pc`?
    #[must_use]
    pub fn live_after(&self, code: &[Inst], pc: usize, r: Reg) -> bool {
        let mut live = false;
        successors(code, pc, |s| live |= s < code.len() && self.is_live_in(s, r));
        live
    }
}
