//! Property-based tests of the memory object model: random well-defined
//! operation sequences checked against a shadow model, and the model's
//! safety invariants. Runs on the hermetic `cheri-qc` harness —
//! deterministic cases, seed-pinned replay (`CHERI_QC_SEED=...`), and
//! shrinking by operation deletion.

use cheri_qc::prop::{check, Config};
use cheri_qc::Rng;

use cheri_cap::{Capability, MorelloCap};

use crate::{CheriMemory, IntVal, MemConfig, PtrVal};

type Mem = CheriMemory<MorelloCap>;

/// A well-defined operation on a set of live allocations.
#[derive(Clone, Debug)]
enum Op {
    /// Allocate `size` bytes (as object k).
    Alloc { size: u8 },
    /// Store `val` at byte offset `off % size` (4-byte aligned within).
    Store { target: u8, off: u8, val: i32 },
    /// Load from a previously-stored offset and check the shadow.
    Load { target: u8, off: u8 },
    /// memcpy between two allocations (length clamped in-bounds).
    Copy { from: u8, to: u8, len: u8 },
    /// memset a prefix.
    Set { target: u8, byte: u8, len: u8 },
}

cheri_qc::no_shrink!(Op);

fn arb_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..5u8) {
        0 => Op::Alloc { size: rng.gen_range(8u8..64) },
        1 => Op::Store {
            target: rng.gen(),
            off: rng.gen(),
            val: rng.gen(),
        },
        2 => Op::Load { target: rng.gen(), off: rng.gen() },
        3 => Op::Copy {
            from: rng.gen(),
            to: rng.gen(),
            len: rng.gen_range(1u8..32),
        },
        _ => Op::Set {
            target: rng.gen(),
            byte: rng.gen(),
            len: rng.gen_range(1u8..32),
        },
    }
}

fn arb_ops(rng: &mut Rng) -> Vec<Op> {
    let n = rng.gen_range(1usize..60);
    (0..n).map(|_| arb_op(rng)).collect()
}

/// Shadow model: per allocation, a byte array mirroring what the program
/// wrote (None = uninitialised).
struct Shadow {
    allocs: Vec<(PtrVal<MorelloCap>, Vec<Option<u8>>)>,
}

/// Every in-bounds operation sequence is defined, and loads return
/// exactly what the shadow model predicts.
#[test]
fn defined_sequences_match_shadow() {
    check("defined_sequences_match_shadow", Config::cases(256), arb_ops, |ops| {
        let mut mem = Mem::new(MemConfig::cheri_reference());
        let mut sh = Shadow { allocs: Vec::new() };
        for op in ops {
            match *op {
                Op::Alloc { size } => {
                    let size = u64::from(size).max(4);
                    let p = mem.allocate_region(size, 16).expect("allocate");
                    sh.allocs.push((p, vec![None; size as usize]));
                }
                Op::Store { target, off, val } => {
                    if sh.allocs.is_empty() { continue; }
                    let t = usize::from(target) % sh.allocs.len();
                    let (base, shadow) = &mut sh.allocs[t];
                    let max_off = shadow.len() - 4;
                    let off = (usize::from(off) % (max_off / 4 + 1)) * 4;
                    let p = mem.array_shift(base, 1, off as i64).expect("shift");
                    mem.store_int(&p, 4, &IntVal::Num(i128::from(val))).expect("store");
                    for (i, b) in val.to_le_bytes().iter().enumerate() {
                        shadow[off + i] = Some(*b);
                    }
                }
                Op::Load { target, off } => {
                    if sh.allocs.is_empty() { continue; }
                    let t = usize::from(target) % sh.allocs.len();
                    let (base, shadow) = &sh.allocs[t];
                    let max_off = shadow.len() - 4;
                    let off = (usize::from(off) % (max_off / 4 + 1)) * 4;
                    let bytes: Option<Vec<u8>> =
                        shadow[off..off + 4].iter().copied().collect();
                    let p = mem.array_shift(base, 1, off as i64).expect("shift");
                    if let Some(bytes) = bytes {
                        let want = i32::from_le_bytes(bytes.try_into().expect("4 bytes"));
                        let got = mem.load_int(&p, 4, true, false).expect("load");
                        assert_eq!(got.value(), i128::from(want));
                    } else {
                        // Uninitialised (fully or partially): UB, not a panic.
                        assert!(mem.load_int(&p, 4, true, false).is_err());
                    }
                }
                Op::Copy { from, to, len } => {
                    if sh.allocs.len() < 2 { continue; }
                    let f = usize::from(from) % sh.allocs.len();
                    let mut t = usize::from(to) % sh.allocs.len();
                    if f == t { t = (t + 1) % sh.allocs.len(); }
                    let n = usize::from(len)
                        .min(sh.allocs[f].1.len())
                        .min(sh.allocs[t].1.len());
                    let src = sh.allocs[f].0;
                    let dst = sh.allocs[t].0;
                    mem.memcpy(&dst, &src, n as u64).expect("memcpy");
                    let copied: Vec<Option<u8>> = sh.allocs[f].1[..n].to_vec();
                    sh.allocs[t].1[..n].copy_from_slice(&copied);
                }
                Op::Set { target, byte, len } => {
                    if sh.allocs.is_empty() { continue; }
                    let t = usize::from(target) % sh.allocs.len();
                    let n = usize::from(len).min(sh.allocs[t].1.len());
                    let dst = sh.allocs[t].0;
                    mem.memset(&dst, byte, n as u64).expect("memset");
                    for b in &mut sh.allocs[t].1[..n] {
                        *b = Some(byte);
                    }
                }
            }
        }
    });
}

/// Unforgeability at the model level: the number of *tagged*
/// capabilities in memory only grows through capability stores
/// (store_ptr / capability-preserving memcpy); data writes never mint
/// tags.
#[test]
fn data_writes_never_mint_tags() {
    check(
        "data_writes_never_mint_tags",
        Config::cases(128),
        |rng| {
            let n = rng.gen_range(1usize..40);
            (0..n).map(|_| (rng.gen::<u8>(), rng.gen::<u8>())).collect::<Vec<(u8, u8)>>()
        },
        |writes| {
            let mut mem = Mem::new(MemConfig::cheri_reference());
            let x = mem.allocate_object("x", 4, 4, false, Some(&[0; 4])).expect("x");
            let slots = mem.allocate_object("slots", 16 * 8, 16, false, None).expect("slots");
            for i in 0..8 {
                let p = mem.array_shift(&slots, 16, i).expect("shift");
                mem.store_ptr(&p, &x).expect("store");
            }
            let before = mem.tagged_caps_in_memory();
            for &(off, val) in writes {
                let off = i64::from(off) % (16 * 8 - 4);
                let p = mem.array_shift(&slots, 1, off).expect("shift");
                mem.store_int(&p, 4, &IntVal::Num(i128::from(val))).expect("store");
                assert!(mem.tagged_caps_in_memory() <= before);
            }
        },
    );
}

/// Temporal invariant: after kill, every access through any pointer
/// into the allocation is UB (abstract machine), regardless of offset.
#[test]
fn killed_allocations_unreachable() {
    check(
        "killed_allocations_unreachable",
        Config::cases(128),
        |rng| {
            let size = rng.gen_range(4u64..64);
            let n = rng.gen_range(1usize..8);
            let offs: Vec<u8> = (0..n).map(|_| rng.gen()).collect();
            (size, offs)
        },
        |&(size, ref offs)| {
            let size = size.clamp(4, 64) & !3;
            let mut mem = Mem::new(MemConfig::cheri_reference());
            let p = mem.allocate_region(size.max(4), 16).expect("malloc");
            mem.memset(&p, 1, size.max(4)).expect("memset");
            mem.kill(&p, true).expect("free");
            for &off in offs {
                let off = u64::from(off) % size.max(4);
                let q = PtrVal::new(p.prov, p.cap.with_address(p.addr() + off));
                assert!(mem.load_int(&q, 1, false, false).is_err());
            }
        },
    );
}

/// Capability stores round-trip through memory at any aligned slot and
/// preserve every field.
#[test]
fn pointer_store_load_roundtrip() {
    check(
        "pointer_store_load_roundtrip",
        Config::cases(128),
        |rng| (rng.gen_range(0u64..16), rng.gen::<bool>()),
        |&(slot, narrow)| {
            let mut mem = Mem::new(MemConfig::cheri_reference());
            let x = mem.allocate_object("x", 64, 16, false, Some(&[0; 64])).expect("x");
            let v = if narrow {
                PtrVal::new(x.prov, x.cap.with_bounds(x.addr() + 16, 16))
            } else {
                x
            };
            let slots = mem.allocate_object("slots", 16 * 16, 16, false, None).expect("slots");
            let p = mem.array_shift(&slots, 16, (slot % 16) as i64).expect("shift");
            mem.store_ptr(&p, &v).expect("store");
            let back = mem.load_ptr(&p).expect("load");
            assert_eq!(back.prov, v.prov);
            assert!(back.cap.exact_eq(&v.cap));
        },
    );
}

// ── Packed AbsByte ───────────────────────────────────────────────────────

/// An arbitrary §4.3 triple for the packing round-trip property.
#[derive(Clone, Debug, PartialEq)]
struct Parts {
    prov: crate::Provenance,
    value: Option<u8>,
    copy_index: Option<u8>,
}

cheri_qc::no_shrink!(Parts);

fn arb_parts(rng: &mut Rng) -> Parts {
    use crate::{AllocId, IotaId, Provenance};
    // Ids span the full 44-bit packed field, biased toward small (realistic)
    // allocation counters.
    let id = |rng: &mut Rng| -> u64 {
        if rng.gen() {
            u64::from(rng.gen::<u16>())
        } else {
            rng.gen_range(0u64..1 << 44)
        }
    };
    let prov = match rng.gen_range(0..3u8) {
        0 => Provenance::Empty,
        1 => Provenance::Alloc(AllocId(id(rng))),
        _ => Provenance::Iota(IotaId(id(rng))),
    };
    Parts {
        prov,
        value: if rng.gen() { Some(rng.gen::<u8>()) } else { None },
        copy_index: if rng.gen() { Some(rng.gen::<u8>()) } else { None },
    }
}

/// Packing is lossless and canonical: `parts ∘ from_parts = id`, packed
/// equality coincides with triple equality, and the derived accessors
/// (`is_init`, `concrete`) match the unpacked definitions.
#[test]
fn packed_absbyte_roundtrip_lossless() {
    use crate::AbsByte;
    check(
        "packed_absbyte_roundtrip_lossless",
        Config::cases(512),
        |rng| {
            let n = rng.gen_range(1usize..32);
            (0..n).map(|_| arb_parts(rng)).collect::<Vec<Parts>>()
        },
        |parts| {
            for p in parts {
                let b = AbsByte::from_parts(p.prov, p.value, p.copy_index);
                let (prov, value, copy_index) = b.parts();
                assert_eq!(
                    Parts { prov, value, copy_index },
                    *p,
                    "unpack(pack(x)) != x"
                );
                assert_eq!(b.is_init(), p.value.is_some());
                assert_eq!(b.concrete(), p.value.unwrap_or(0));
            }
            for a in parts {
                for b in parts {
                    let pa = AbsByte::from_parts(a.prov, a.value, a.copy_index);
                    let pb = AbsByte::from_parts(b.prov, b.value, b.copy_index);
                    assert_eq!(pa == pb, a == b, "packed equality is not canonical");
                }
            }
        },
    );
}

// ── Differential: flat store vs legacy store ─────────────────────────────

/// A mixed (deliberately UB-capable) operation for the store-equivalence
/// referee: every outcome, including errors, is compared across stores.
#[derive(Clone, Debug)]
enum MOp {
    Alloc { size: u32 },
    Free { t: u8 },
    Store { t: u8, off: Off, val: i32 },
    Load { t: u8, off: Off },
    StorePtr { t: u8, off: Off, src: u8 },
    LoadPtr { t: u8, off: Off },
    StoreIntPtr { t: u8, off: Off, src: u8 },
    LoadIntPtr { t: u8, off: Off },
    Copy { from: u8, to: u8, from_off: Off, to_off: Off, len: u8 },
    Set { t: u8, off: Off, byte: u8, len: u8 },
}

cheri_qc::no_shrink!(MOp);

/// An access offset into an allocation of requested size `size`: from its
/// start, or around its end — `size - 64 + d`, so accesses reach past the
/// requested size into the representability padding and beyond the
/// reserved end, and in a large allocation land far past the prefix that
/// earlier stores materialised.
#[derive(Clone, Copy, Debug)]
enum Off {
    Start(u8),
    End(u8),
}

impl Off {
    fn resolve(self, size: u64) -> u64 {
        match self {
            Off::Start(d) => u64::from(d),
            Off::End(d) => size.wrapping_sub(64).wrapping_add(u64::from(d)),
        }
    }
}

/// An offset below `span` from the start or, a third of the time, within
/// 96 bytes of the end.
fn arb_off(rng: &mut Rng, span: u8) -> Off {
    if rng.gen_range(0..3u8) == 0 {
        Off::End(rng.gen_range(0u8..96))
    } else {
        Off::Start(rng.gen_range(0..span))
    }
}

/// A capability-width access offset: slot-aligned half the time, so tagged
/// stores and loads are common rather than one draw in sixteen.
fn cap_off(rng: &mut Rng) -> Off {
    match rng.gen_range(0..4u8) {
        0 => Off::Start(rng.gen_range(0u8..6) * 16),
        1 => Off::End(rng.gen_range(0u8..6) * 16),
        _ => arb_off(rng, 96),
    }
}

/// A small object (1–95 bytes), or a quarter of the time a large one (up
/// to 64 KiB), whose representability padding is often non-zero.
fn arb_size(rng: &mut Rng) -> u32 {
    if rng.gen_range(0..4u8) == 0 {
        rng.gen_range(4096u32..=65536)
    } else {
        rng.gen_range(1u32..96)
    }
}

fn arb_mop(rng: &mut Rng) -> MOp {
    match rng.gen_range(0..10u8) {
        0 => MOp::Alloc { size: arb_size(rng) },
        1 => MOp::Free { t: rng.gen() },
        2 => MOp::Store { t: rng.gen(), off: arb_off(rng, 96), val: rng.gen() },
        3 => MOp::Load { t: rng.gen(), off: arb_off(rng, 96) },
        4 => MOp::StorePtr { t: rng.gen(), off: cap_off(rng), src: rng.gen() },
        5 => MOp::LoadPtr { t: rng.gen(), off: cap_off(rng) },
        6 => MOp::StoreIntPtr { t: rng.gen(), off: cap_off(rng), src: rng.gen() },
        7 => MOp::LoadIntPtr { t: rng.gen(), off: cap_off(rng) },
        8 => MOp::Copy {
            from: rng.gen(),
            to: rng.gen(),
            from_off: arb_off(rng, 64),
            to_off: arb_off(rng, 64),
            len: rng.gen_range(0u8..48),
        },
        _ => MOp::Set {
            t: rng.gen(),
            off: arb_off(rng, 64),
            byte: rng.gen(),
            len: rng.gen_range(0u8..48),
        },
    }
}

fn arb_mops(rng: &mut Rng) -> Vec<MOp> {
    let n = rng.gen_range(1usize..50);
    (0..n).map(|_| arb_mop(rng)).collect()
}

/// Rebase a pointer to `addr + off` without the arithmetic UB check, so the
/// sequence can probe out-of-bounds accesses too. `size` is the requested
/// size of the allocation `p` points to the start of.
fn at<C: Capability>(p: &PtrVal<C>, size: u64, off: Off) -> PtrVal<C> {
    PtrVal::new(
        p.prov,
        p.cap.with_address(p.addr().wrapping_add(off.resolve(size))),
    )
}

/// Run a mixed sequence and log every observable: op results (values and
/// errors), the tagged-capability count after each op, a final byte/slot
/// sweep over the start and the end of every allocation, the stats
/// counters, and the event trace.
fn run_mixed<C: Capability>(cfg: MemConfig, ops: &[MOp]) -> Vec<String> {
    fn pick<C: Capability>(ptrs: &[(PtrVal<C>, u64)], t: u8) -> Option<(PtrVal<C>, u64)> {
        if ptrs.is_empty() {
            None
        } else {
            Some(ptrs[usize::from(t) % ptrs.len()])
        }
    }
    let mut mem = CheriMemory::<C>::new(cfg);
    mem.enable_trace();
    let mut ptrs: Vec<(PtrVal<C>, u64)> = Vec::new();
    let mut log: Vec<String> = Vec::new();
    for op in ops {
        let line = match *op {
            MOp::Alloc { size } => match mem.allocate_region(u64::from(size), 16) {
                Ok(p) => {
                    ptrs.push((p, u64::from(size)));
                    format!("alloc @{:#x}", p.addr())
                }
                Err(e) => format!("alloc err {e:?}"),
            },
            MOp::Free { t } => match pick(&ptrs, t) {
                Some((p, _)) => format!("free {:?}", mem.kill(&p, true)),
                None => "skip".into(),
            },
            MOp::Store { t, off, val } => match pick(&ptrs, t) {
                Some((p, n)) => format!(
                    "store {:?}",
                    mem.store_int(&at(&p, n, off), 4, &IntVal::Num(i128::from(val)))
                ),
                None => "skip".into(),
            },
            MOp::Load { t, off } => match pick(&ptrs, t) {
                Some((p, n)) => {
                    format!("load {:?}", mem.load_int(&at(&p, n, off), 4, true, false))
                }
                None => "skip".into(),
            },
            MOp::StorePtr { t, off, src } => match (pick(&ptrs, t), pick(&ptrs, src)) {
                (Some((p, n)), Some((s, _))) => {
                    format!("storep {:?}", mem.store_ptr(&at(&p, n, off), &s))
                }
                _ => "skip".into(),
            },
            MOp::LoadPtr { t, off } => match pick(&ptrs, t) {
                Some((p, n)) => format!("loadp {:?}", mem.load_ptr(&at(&p, n, off))),
                None => "skip".into(),
            },
            // `(u)intptr_t` objects: a capability-carrying integer of
            // capability width goes through the slot-metadata path of the
            // scalar store and load.
            MOp::StoreIntPtr { t, off, src } => match (pick(&ptrs, t), pick(&ptrs, src)) {
                (Some((p, n)), Some((s, _))) => {
                    let v = IntVal::Cap {
                        signed: false,
                        cap: s.cap,
                        prov: s.prov,
                    };
                    let size = mem.pointer_bytes() as u64;
                    format!("storeu {:?}", mem.store_int(&at(&p, n, off), size, &v))
                }
                _ => "skip".into(),
            },
            MOp::LoadIntPtr { t, off } => match pick(&ptrs, t) {
                Some((p, n)) => {
                    let size = mem.pointer_bytes() as u64;
                    format!("loadu {:?}", mem.load_int(&at(&p, n, off), size, false, true))
                }
                None => "skip".into(),
            },
            MOp::Copy { from, to, from_off, to_off, len } => {
                match (pick(&ptrs, from), pick(&ptrs, to)) {
                    (Some((f, fnn)), Some((d, dn))) => format!(
                        "copy {:?}",
                        mem.memcpy(&at(&d, dn, to_off), &at(&f, fnn, from_off), u64::from(len))
                    ),
                    _ => "skip".into(),
                }
            }
            MOp::Set { t, off, byte, len } => match pick(&ptrs, t) {
                Some((p, n)) => format!(
                    "set {:?}",
                    mem.memset(&at(&p, n, off), byte, u64::from(len))
                ),
                None => "skip".into(),
            },
        };
        log.push(format!("{line}; tags={}", mem.tagged_caps_in_memory()));
    }
    let cb = C::CAP_BYTES as u64;
    for &(p, n) in &ptrs {
        for (lo, hi) in [(0, 96), (n.saturating_sub(64), n + 32)] {
            for off in (lo..hi).step_by(4) {
                let q = PtrVal::new(p.prov, p.cap.with_address(p.addr() + off));
                log.push(format!("sweep {:?}", mem.load_int(&q, 4, false, false)));
            }
            let mut slot = (p.addr() + lo + cb - 1) & !(cb - 1);
            while slot < p.addr() + hi {
                log.push(format!("meta {slot:#x} {:?}", mem.cap_meta_at(slot)));
                slot += cb;
            }
        }
    }
    log.push(format!("stats {:?}", mem.stats));
    log.extend(mem.take_trace());
    log
}

/// The flat per-allocation store and the legacy global-dictionary store
/// are observably identical — results (including UB/trap errors), traces,
/// capability slots, stats, and byte contents — across every profile
/// family, including the revocation-on-free CHERIoT configuration.
///
/// Under the abstract-UB profiles the flat store's checked scalar accesses
/// take the direct path (the allocation found by the access check), while
/// the hardware profiles search the interval index. The test counts the
/// successful scalar accesses under `cheri_reference` and requires every
/// kind to occur, so the direct path is really compared with the legacy
/// store. It also requires large allocations with non-zero
/// representability padding, so accesses around their end compare the
/// flat store's lazily materialised prefix (and its never-written tail)
/// with the legacy store's absent keys.
#[test]
fn legacy_and_flat_stores_agree() {
    use cheri_cap::{CcCap, CheriotProfile};
    use crate::AddressLayout;
    use std::cell::Cell;

    const KINDS: [&str; 6] = [
        "store Ok",
        "load Ok",
        "storep Ok",
        "loadp Ok",
        "storeu Ok",
        "loadu Ok",
    ];
    let direct = Cell::new([0u32; KINDS.len()]);
    let padded_large = Cell::new(0u32);
    check("legacy_and_flat_stores_agree", Config::cases(96), arb_mops, |ops| {
        for op in ops {
            if let MOp::Alloc { size } = *op {
                let size = u64::from(size);
                if size >= 4096 && MorelloCap::representable_length(size) > size {
                    padded_large.set(padded_large.get() + 1);
                }
            }
        }
        let morello_cfgs = [
            MemConfig::cheri_reference(),
            MemConfig::cheri_hardware(AddressLayout::clang_morello()),
            MemConfig::iso_baseline(),
        ];
        for (i, cfg) in morello_cfgs.into_iter().enumerate() {
            let mut legacy = cfg;
            legacy.legacy_store = true;
            let mut flat = cfg;
            flat.legacy_store = false;
            let flat_log = run_mixed::<MorelloCap>(flat, ops);
            if i == 0 {
                let mut n = direct.get();
                for line in &flat_log {
                    if let Some(k) = KINDS.iter().position(|k| line.starts_with(k)) {
                        n[k] += 1;
                    }
                }
                direct.set(n);
            }
            assert_eq!(
                flat_log,
                run_mixed::<MorelloCap>(legacy, ops),
                "stores diverge under {cfg:?}"
            );
        }
        let cfg = MemConfig::cheriot();
        let mut legacy = cfg;
        legacy.legacy_store = true;
        let mut flat = cfg;
        flat.legacy_store = false;
        assert_eq!(
            run_mixed::<CcCap<CheriotProfile>>(flat, ops),
            run_mixed::<CcCap<CheriotProfile>>(legacy, ops),
            "stores diverge under {cfg:?}"
        );
    });
    for (kind, n) in KINDS.iter().zip(direct.get()) {
        assert!(n > 0, "no successful `{kind}` access under cheri_reference");
    }
    assert!(padded_large.get() > 0, "no large allocation with padding");
}
