//! The CHERI C memory object model (§4.3 of the paper).
//!
//! The state is the paper's `mem_state ≜ A × S × M` with `M ≜ B × C`:
//! allocations, PNVI-ae-udi provenance bookkeeping, the byte store `B` of
//! [`AbsByte`]s, and the capability-metadata dictionary `C`. All operations
//! are methods on [`CheriMemory`] returning [`MemResult`] — the Rust
//! rendering of the paper's `memM` state-and-error monad.
//!
//! `B` and `C` have two observably-identical renderings, selected by
//! [`MemConfig::legacy_store`]: the original global per-byte/per-slot
//! `BTreeMap` dictionaries, and the default *flat store* — one contiguous
//! `Vec<AbsByte>` buffer plus a packed capability-slot bitset per
//! allocation, addressed through a sorted interval index over the pairwise
//! disjoint reserved footprints. Both per-allocation structures hold only
//! the prefix written so far; the rest reads as uninitialised and untagged,
//! like an absent dictionary key, so allocating and freeing cost the same
//! whatever the size.
//!
//! The same type also serves as the *baseline* ISO C PNVI-ae-udi concrete
//! model (§2.3) when constructed with `capabilities = false`, and as the
//! hardware-emulation model for the implementation-comparison profiles when
//! constructed with `abstract_ub = false` (capability traps only, no
//! abstract UB detection) — see [`MemConfig`].

use std::collections::BTreeMap;

use cheri_cap::{Capability, GhostState, Perms};
use cheri_obs::sink::EventSink;

/// Largest scalar access (bytes) served from a stack buffer on the
/// load/store hot path; covers every capability representation
/// (`C::CAP_BYTES` is at most 16). Larger windows fall back to a heap
/// `Vec`.
const SCALAR_BUF: usize = 16;
use cheri_obs::{
    AllocClass, MemEvent, Name, SinkHandle, TagClearReason, VecSink, TAG_CLEAR_REASONS,
};

use crate::absbyte::{recover_provenance, AbsByte};
use crate::allocation::{AllocKind, Allocation};
use crate::capmeta::{CapMeta, SlotMeta, TagInvalidation};
use crate::layout::AddressLayout;
use crate::provenance::{AllocId, IotaId, IotaState, Provenance};
use crate::ub::{MemError, MemResult, TrapKind, Ub};
use crate::value::{IntVal, PtrVal};

/// Configuration of a memory-model instance.
#[derive(Clone, Copy, Debug)]
pub struct MemConfig {
    /// `true`: the CHERI C model (pointers are capabilities, architectural
    /// checks on every access). `false`: the baseline PNVI-ae-udi concrete
    /// model with machine-word pointers.
    pub capabilities: bool,
    /// `true`: abstract-machine semantics — provenance/liveness/ISO checks
    /// are performed and failures are reported as UB. `false`: hardware
    /// emulation — only the architectural capability checks run, failing
    /// with [`MemError::Trap`].
    pub abstract_ub: bool,
    /// How non-capability writes invalidate overlapping capabilities.
    pub tag_invalidation: TagInvalidation,
    /// Allocator address layout.
    pub layout: AddressLayout,
    /// Pad and align allocations so their capabilities are exactly
    /// representable (§3.2: "allocators need to use additional padding
    /// and/or alignment").
    pub pad_for_representability: bool,
    /// Capability revocation on free (§5.4/§7: CHERIoT-style temporal
    /// safety / Cornucopia): ending a heap allocation's lifetime sweeps
    /// memory and clears the tag of every stored capability whose bounds
    /// overlap the freed region, so even the hardware-only profiles
    /// catch use-after-free through reloaded pointers.
    pub revocation: bool,
    /// Use the legacy storage layout: one global `BTreeMap<u64, AbsByte>`
    /// byte dictionary plus a global [`CapMeta`] slot dictionary, instead of
    /// the per-allocation flat buffers and slot bitsets. Kept for one
    /// release as a differential referee and benchmark baseline; the two
    /// layouts are observably identical (same outcomes, traces, and stats).
    pub legacy_store: bool,
}

impl MemConfig {
    /// The reference (Cerberus-like) CHERI C abstract machine.
    #[must_use]
    pub fn cheri_reference() -> Self {
        MemConfig {
            capabilities: true,
            abstract_ub: true,
            tag_invalidation: TagInvalidation::Ghost,
            layout: AddressLayout::cerberus(),
            pad_for_representability: true,
            revocation: false,
            legacy_store: false,
        }
    }

    /// A CHERI hardware implementation (capability traps, no abstract UB),
    /// with the given allocator layout.
    #[must_use]
    pub fn cheri_hardware(layout: AddressLayout) -> Self {
        MemConfig {
            capabilities: true,
            abstract_ub: false,
            tag_invalidation: TagInvalidation::Clear,
            layout,
            pad_for_representability: true,
            revocation: false,
            legacy_store: false,
        }
    }

    /// A CHERIoT-style configuration: hardware checking plus revocation on
    /// free (§5.4: "CHERIoT provides additional temporal guarantees").
    #[must_use]
    pub fn cheriot() -> Self {
        MemConfig {
            capabilities: true,
            abstract_ub: false,
            tag_invalidation: TagInvalidation::Clear,
            layout: AddressLayout::embedded32(),
            pad_for_representability: true,
            revocation: true,
            legacy_store: false,
        }
    }

    /// The baseline ISO C concrete model (PNVI-ae-udi, no capabilities).
    #[must_use]
    pub fn iso_baseline() -> Self {
        MemConfig {
            capabilities: false,
            abstract_ub: true,
            tag_invalidation: TagInvalidation::Ghost,
            layout: AddressLayout::cerberus(),
            pad_for_representability: false,
            revocation: false,
            legacy_store: false,
        }
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::cheri_reference()
    }
}

/// Operation counters, for the benchmark harness and `cheri-c --stats`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Number of scalar loads performed.
    pub loads: u64,
    /// Number of scalar stores performed.
    pub stores: u64,
    /// Number of allocations created.
    pub allocations: u64,
    /// Number of capability-representability checks performed.
    pub representability_checks: u64,
    /// Bytes wasted to representability padding (§3.2).
    pub padding_bytes: u64,
    /// Number of stored capabilities whose tag a revocation sweep cleared
    /// (§7 temporal-safety extension).
    pub revoked_caps: u64,
    /// Number of allocation lifetime ends (scope exits and `free`).
    pub frees: u64,
    /// Total bytes moved by `memcpy`/`memmove`.
    pub memcpy_bytes: u64,
    /// Total capability slots whose tag was cleared or marked unspecified
    /// (sum over all reasons, including revocation).
    pub tag_clears: u64,
    /// `tag_clears` broken down by [`TagClearReason`], indexed by
    /// `TagClearReason::code()`.
    pub tag_clears_by_reason: [u64; TAG_CLEAR_REASONS],
}

/// Which kind of access a check is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Access {
    Load,
    Store,
}

/// [`AllocKind`] → the event vocabulary's [`AllocClass`] (same variants;
/// `cheri-obs` keeps its own copy to stay a leaf crate).
fn alloc_class(kind: AllocKind) -> AllocClass {
    match kind {
        AllocKind::Auto => AllocClass::Auto,
        AllocKind::Static => AllocClass::Static,
        AllocKind::Heap => AllocClass::Heap,
        AllocKind::Function => AllocClass::Function,
        AllocKind::StringLiteral => AllocClass::StringLiteral,
    }
}

/// Invalidate the tagged or ghost-marked slots of `a` at addresses in
/// `[first, hi)`, `first` being capability-aligned (the flat-store half of
/// [`CapMeta::invalidate_range`]); returns how many it touched.
fn invalidate_slots(
    a: &mut Allocation,
    first: u64,
    hi: u64,
    cb: u64,
    mode: TagInvalidation,
) -> usize {
    // Slots past the materialised words are clean: nothing to invalidate.
    let n_slots = a.slots.materialised_slots() as u64;
    if n_slots == 0 || hi <= a.first_slot {
        return 0;
    }
    // Slot `k` sits at `first_slot + k*cb`.
    let k_lo = if first > a.first_slot {
        (first - a.first_slot).div_ceil(cb)
    } else {
        0
    };
    let k_hi = (hi - a.first_slot).div_ceil(cb).min(n_slots);
    let mut affected = 0;
    for k in k_lo..k_hi {
        let m = a.slots.get(k as usize);
        if m.tag || !m.ghost.is_clean() {
            affected += 1;
            let new = match mode {
                TagInvalidation::Ghost => SlotMeta {
                    tag: m.tag,
                    ghost: GhostState {
                        tag_unspecified: true,
                        bounds_unspecified: m.ghost.bounds_unspecified,
                    },
                },
                TagInvalidation::Clear => SlotMeta::default(),
            };
            a.slots.set(k as usize, new);
        }
    }
    affected
}

/// The memory object model.
///
/// # Example
///
/// ```
/// use cheri_cap::MorelloCap;
/// use cheri_mem::{CheriMemory, MemConfig, IntVal};
///
/// let mut mem = CheriMemory::<MorelloCap>::new(MemConfig::cheri_reference());
/// let p = mem.allocate_object("x", 4, 4, false, None).unwrap();
/// mem.store_int(&p, 4, &IntVal::Num(42)).unwrap();
/// assert_eq!(mem.load_int(&p, 4, true, false).unwrap().value(), 42);
///
/// // One-past construction is fine; accessing through it is UB.
/// let q = mem.array_shift(&p, 4, 1).unwrap();
/// assert!(mem.load_int(&q, 4, true, false).is_err());
/// ```
#[derive(Clone, Debug)]
pub struct CheriMemory<C: Capability> {
    cfg: MemConfig,
    /// Every allocation ever created, in ID order. IDs are dense (a
    /// counter starting at 1, never reused) and dead allocations are kept
    /// for diagnostics, so the "map" is a plain vector indexed by
    /// `id - 1` — O(1) resolution on the access hot path.
    allocations: Vec<Allocation>,
    next_alloc: u64,
    iotas: BTreeMap<IotaId, IotaState>,
    next_iota: u64,
    /// Legacy store only: the global address-indexed byte dictionary.
    bytes: BTreeMap<u64, AbsByte>,
    /// Legacy store only: the global capability-metadata dictionary.
    caps: CapMeta,
    /// Sorted interval index over *reserved* allocation footprints:
    /// `(base, base + reserved_size, id)`, ordered by `base`. Footprints are
    /// pairwise disjoint (the bump allocators never reuse addresses), so a
    /// binary search resolves address → allocation in O(log #allocs). Kept
    /// in both storage modes; the flat store additionally routes all byte
    /// and capability-slot traffic through it.
    index: Vec<(u64, u64, AllocId)>,
    /// Flat store only: bytes written *outside* every allocation's reserved
    /// footprint. Reachable only through capabilities whose
    /// CHERI-Concentrate padding extends past their allocation (§3.2), so
    /// this is empty in practice — it exists to keep the flat store
    /// observably identical to the legacy global dictionary.
    spill: BTreeMap<u64, AbsByte>,
    /// Flat store only: capability-slot metadata for slots whose footprint
    /// is not fully inside one allocation (same provenance as `spill`).
    spill_caps: CapMeta,
    stack_ptr: u64,
    heap_ptr: u64,
    globals_ptr: u64,
    /// Operation counters.
    pub stats: MemStats,
    /// Event-sink slot: when empty, emitting costs one branch and events
    /// are never constructed (`cheri-obs`' zero-cost-when-off contract).
    sink: SinkHandle,
    /// Flat-store byte buffers harvested by [`CheriMemory::reset`] and
    /// reused by subsequent allocations, so a long-lived instance (one
    /// batch-service worker) stops paying a heap allocation per program
    /// object. Buffer identity is not observable: a recycled buffer is
    /// handed out cleared, an empty written prefix exactly like a fresh one.
    recycle: Vec<Vec<AbsByte>>,
    _cap: std::marker::PhantomData<C>,
}

/// Cap on the number of byte buffers [`CheriMemory::reset`] keeps for
/// reuse; beyond it, buffers are dropped like in a single-shot run.
const RECYCLE_POOL_CAP: usize = 256;

impl<C: Capability> CheriMemory<C> {
    /// Create an empty memory with the given configuration.
    #[must_use]
    pub fn new(cfg: MemConfig) -> Self {
        CheriMemory {
            cfg,
            allocations: Vec::new(),
            // Allocation IDs start above the IDs the runtime start-up would
            // consume in Cerberus; cosmetic only.
            next_alloc: 1,
            iotas: BTreeMap::new(),
            next_iota: 0,
            bytes: BTreeMap::new(),
            caps: CapMeta::new(),
            index: Vec::new(),
            spill: BTreeMap::new(),
            spill_caps: CapMeta::new(),
            stack_ptr: cfg.layout.stack_base,
            heap_ptr: cfg.layout.heap_base,
            globals_ptr: cfg.layout.globals_base,
            stats: MemStats::default(),
            sink: SinkHandle::none(),
            recycle: Vec::new(),
            _cap: std::marker::PhantomData,
        }
    }

    /// Reset this instance to the pristine state of [`CheriMemory::new`]
    /// under `cfg` — same observable behaviour, but the flat-store byte
    /// buffers of the previous run are kept (capacity-preserving) and
    /// reused by future allocations. A long-lived caller executing many
    /// programs (the `cheri-serve` batch workers) resets one arena per
    /// worker instead of reallocating a world per job.
    ///
    /// Any installed event sink is removed (and dropped): a recycled
    /// memory must not leak one job's trace into the next.
    pub fn reset(&mut self, cfg: MemConfig) {
        for a in &mut self.allocations {
            let buf = std::mem::take(&mut a.buf);
            if buf.capacity() > 0 && self.recycle.len() < RECYCLE_POOL_CAP {
                self.recycle.push(buf);
            }
        }
        self.allocations.clear();
        self.next_alloc = 1;
        self.iotas.clear();
        self.next_iota = 0;
        self.bytes.clear();
        self.caps = CapMeta::new();
        self.index.clear();
        self.spill.clear();
        self.spill_caps = CapMeta::new();
        self.cfg = cfg;
        self.stack_ptr = cfg.layout.stack_base;
        self.heap_ptr = cfg.layout.heap_base;
        self.globals_ptr = cfg.layout.globals_base;
        self.stats = MemStats::default();
        self.sink = SinkHandle::none();
    }

    /// An empty byte buffer (a written prefix of length 0) for an
    /// allocation reserving `len` bytes: a recycled buffer with room for all
    /// of them when the pool has one, cleared without a refill; otherwise a
    /// new, unallocated one that grows on the first write.
    fn uninit_buf(&mut self, len: usize) -> Vec<AbsByte> {
        if let Some(i) = self.recycle.iter().position(|b| b.capacity() >= len) {
            let mut buf = self.recycle.swap_remove(i);
            buf.clear();
            return buf;
        }
        Vec::new()
    }

    /// Enable memory-event tracing: every observable action is recorded as
    /// a typed [`MemEvent`] in a [`VecSink`]. Supports using the executable
    /// semantics as a test oracle (§7 of the paper).
    pub fn enable_trace(&mut self) {
        self.sink.install(Box::new(VecSink::new()));
    }

    /// Take the recorded trace rendered as the legacy text lines (the
    /// historical `--trace` format, byte for byte), leaving tracing
    /// enabled. Empty if no [`VecSink`] is installed.
    pub fn take_trace(&mut self) -> Vec<String> {
        cheri_obs::render::legacy_lines(&self.take_events())
    }

    /// Take the recorded typed events, leaving tracing enabled. Empty if
    /// no [`VecSink`] is installed.
    pub fn take_events(&mut self) -> Vec<MemEvent> {
        match self.sink.downcast_mut::<VecSink>() {
            Some(v) => std::mem::take(&mut v.events),
            None => Vec::new(),
        }
    }

    /// Install an arbitrary event sink (replacing any existing one, which
    /// is returned). See [`cheri_obs::sink`] for the stock sinks.
    pub fn set_sink(&mut self, sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
        self.sink.install(sink)
    }

    /// Remove and return the installed event sink.
    pub fn take_sink(&mut self) -> Option<Box<dyn EventSink>> {
        self.sink.take()
    }

    /// Is an event sink installed?
    #[must_use]
    pub fn sink_active(&self) -> bool {
        self.sink.is_active()
    }

    /// Emit an event into the installed sink, if any. The closure runs only
    /// when a sink is installed — this is the zero-cost-when-off path.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce() -> MemEvent) {
        self.sink.emit_with(f);
    }

    /// The configuration this instance runs with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Size in bytes of a stored pointer in this model (capability size, or
    /// machine-word size for the baseline model).
    #[must_use]
    pub fn pointer_bytes(&self) -> usize {
        if self.cfg.capabilities {
            C::CAP_BYTES
        } else {
            (C::ADDR_BITS / 8) as usize
        }
    }

    // ── Allocation ───────────────────────────────────────────────────────

    fn fresh_alloc_id(&mut self) -> AllocId {
        let id = AllocId(self.next_alloc);
        self.next_alloc += 1;
        id
    }

    /// Allocation lookup by ID (IDs index the dense vector at `id - 1`).
    #[inline]
    fn alloc_ref(&self, id: AllocId) -> Option<&Allocation> {
        self.allocations.get(id.0.checked_sub(1)? as usize)
    }

    /// Mutable counterpart of [`CheriMemory::alloc_ref`].
    #[inline]
    fn alloc_mut(&mut self, id: AllocId) -> Option<&mut Allocation> {
        self.allocations.get_mut(id.0.checked_sub(1)? as usize)
    }

    /// Compute the address for a new allocation of `size` bytes with
    /// `align` alignment in the region for `kind`.
    fn place(&mut self, size: u64, align: u64, kind: AllocKind) -> MemResult<u64> {
        let align = align.max(1);
        match kind {
            AllocKind::Auto => {
                let base = self
                    .stack_ptr
                    .checked_sub(size)
                    .map(|a| a & !(align - 1))
                    .ok_or_else(|| MemError::Fail("stack exhausted".into()))?;
                if base < self.cfg.layout.stack_limit {
                    return Err(MemError::Fail("stack exhausted".into()));
                }
                self.stack_ptr = base;
                Ok(base)
            }
            AllocKind::Heap => {
                let base = (self.heap_ptr + align - 1) & !(align - 1);
                let end = base
                    .checked_add(size)
                    .ok_or_else(|| MemError::Fail("heap exhausted".into()))?;
                if end > self.cfg.layout.heap_limit {
                    return Err(MemError::Fail("heap exhausted".into()));
                }
                self.heap_ptr = end;
                Ok(base)
            }
            AllocKind::Static | AllocKind::Function | AllocKind::StringLiteral => {
                let base = (self.globals_ptr + align - 1) & !(align - 1);
                let end = base
                    .checked_add(size)
                    .ok_or_else(|| MemError::Fail("globals exhausted".into()))?;
                if end > self.cfg.layout.globals_limit {
                    return Err(MemError::Fail("globals region exhausted".into()));
                }
                self.globals_ptr = end;
                Ok(base)
            }
        }
    }

    /// Derive the capability handed out for a fresh allocation: bounds
    /// narrowed to the footprint, data permissions (read-only for `const`
    /// objects, §3.9; execute for functions).
    fn allocation_cap(&self, base: u64, size: u64, kind: AllocKind, readonly: bool) -> C {
        if !self.cfg.capabilities {
            // Baseline model: pointers are plain addresses; keep a root
            // capability around purely as the address carrier.
            return C::root().with_address(base);
        }
        let perms = match kind {
            AllocKind::Function => Perms::code(),
            AllocKind::StringLiteral => Perms::data_readonly(),
            _ if readonly => Perms::data_readonly(),
            _ => Perms::data(),
        };
        C::root()
            .with_bounds(base, size)
            .with_perms_and(perms)
            .with_address(base)
    }

    /// Allocate an object (local or global variable, function, or string
    /// literal) and return a pointer to it. `init` optionally provides the
    /// initial byte contents; otherwise the object is uninitialised.
    ///
    /// # Errors
    ///
    /// Fails (not UB) when the address space region is exhausted.
    pub fn allocate_object(
        &mut self,
        prefix: &str,
        size: u64,
        align: u64,
        readonly: bool,
        init: Option<&[u8]>,
    ) -> MemResult<PtrVal<C>> {
        self.allocate_kind(prefix, size, align, AllocKind::Auto, readonly, init)
    }

    /// Allocate with an explicit [`AllocKind`].
    ///
    /// # Errors
    ///
    /// Fails (not UB) when the address space region is exhausted.
    pub fn allocate_kind(
        &mut self,
        prefix: &str,
        size: u64,
        align: u64,
        kind: AllocKind,
        readonly: bool,
        init: Option<&[u8]>,
    ) -> MemResult<PtrVal<C>> {
        let (align, reserved) = if self.cfg.capabilities && self.cfg.pad_for_representability {
            let mask = C::representable_alignment_mask(size);
            let repr_align = (!mask).wrapping_add(1).max(1);
            let reserved = C::representable_length(size).max(size.max(1));
            self.stats.padding_bytes += reserved - size;
            self.emit(|| MemEvent::RepCheck {
                size,
                reserved,
                padded: reserved != size,
            });
            (align.max(repr_align), reserved)
        } else {
            (align, size.max(1))
        };
        let base = self.place(reserved, align, kind)?;
        let id = self.fresh_alloc_id();
        let (buf, slots, first_slot) = if self.cfg.legacy_store {
            (Vec::new(), crate::capmeta::CapSlotBits::new(0), base)
        } else {
            let cb = C::CAP_BYTES as u64;
            // First capability-aligned address at or above `base`.
            let first_slot = (base.wrapping_add(cb - 1)) & !(cb - 1);
            let n_slots = Allocation::slot_count(base, reserved, first_slot, cb);
            let mut buf = self.uninit_buf(reserved as usize);
            if let Some(init) = init {
                buf.extend(init.iter().map(|b| AbsByte::data(*b)));
            }
            (buf, crate::capmeta::CapSlotBits::new(n_slots), first_slot)
        };
        debug_assert_eq!(self.allocations.len() as u64 + 1, id.0);
        self.allocations.push(
            Allocation {
                id,
                base,
                size,
                reserved_size: reserved,
                align,
                kind,
                alive: true,
                exposed: false,
                readonly: readonly || kind.inherently_readonly(),
                prefix: prefix.to_string(),
                buf,
                slots,
                first_slot,
            },
        );
        let pos = self.index.partition_point(|e| e.0 < base);
        self.index.insert(pos, (base, base + reserved, id));
        self.stats.allocations += 1;
        self.emit(|| MemEvent::Alloc {
            id: id.0,
            base,
            size,
            kind: alloc_class(kind),
            name: Name::new(prefix),
        });
        if let Some(init) = init {
            debug_assert_eq!(init.len() as u64, size);
            if self.cfg.legacy_store {
                for (i, b) in init.iter().enumerate() {
                    self.bytes.insert(base + i as u64, AbsByte::data(*b));
                }
            }
        }
        let cap = self.allocation_cap(base, size, kind, readonly);
        Ok(PtrVal::new(Provenance::Alloc(id), cap))
    }

    /// `malloc`: allocate a dynamic region.
    ///
    /// # Errors
    ///
    /// Fails (not UB) when the heap is exhausted.
    pub fn allocate_region(&mut self, size: u64, align: u64) -> MemResult<PtrVal<C>> {
        self.allocate_kind("malloc", size, align.max(16), AllocKind::Heap, false, None)
    }

    /// End the lifetime of an allocation. `dynamic` selects `free` semantics
    /// (heap region, pointer must be the start) vs. automatic end-of-scope.
    ///
    /// # Errors
    ///
    /// UB per ISO C: freeing an invalid pointer, double free, freeing a
    /// pointer that is not the start of a heap allocation.
    pub fn kill(&mut self, p: &PtrVal<C>, dynamic: bool) -> MemResult<()> {
        if dynamic && p.is_null() {
            return Ok(()); // free(NULL) is a no-op
        }
        let id = match self.resolve_prov(&p.prov, p.addr(), 0)? {
            Some(id) => id,
            None => {
                return Err(MemError::ub(
                    Ub::FreeInvalidPointer,
                    format!("no provenance for {:#x}", p.addr()),
                ))
            }
        };
        let alloc = self
            .alloc_ref(id)
            .ok_or_else(|| MemError::ub(Ub::FreeInvalidPointer, "unknown allocation"))?;
        if !alloc.alive {
            return Err(MemError::ub(
                Ub::DoubleFree,
                format!("{} ({})", id, alloc.prefix),
            ));
        }
        if dynamic {
            if alloc.kind != AllocKind::Heap || p.addr() != alloc.base {
                return Err(MemError::ub(
                    Ub::FreeInvalidPointer,
                    format!("{:#x} is not the start of a heap allocation", p.addr()),
                ));
            }
            if self.cfg.capabilities && !p.cap.tag() {
                return Err(self.cap_fail(
                    Ub::CheriInvalidCap,
                    TrapKind::TagViolation,
                    "free via untagged capability",
                ));
            }
        }
        let (base, end) = (alloc.base, alloc.base + alloc.reserved_size);
        self.stats.frees += 1;
        self.emit(|| MemEvent::Free {
            id: id.0,
            base,
            end,
            dynamic,
        });
        // Field-indexing (not `alloc_mut`) keeps the borrow on
        // `self.allocations` alone so `self.cfg`/`self.bytes` stay usable.
        let alloc = &mut self.allocations[(id.0 - 1) as usize];
        alloc.alive = false;
        if self.cfg.abstract_ub {
            // Abstract machine: the contents become indeterminate when the
            // lifetime ends.
            if self.cfg.legacy_store {
                let keys: Vec<u64> = self.bytes.range(base..end).map(|(k, _)| *k).collect();
                for k in keys {
                    self.bytes.remove(&k);
                }
                self.caps.clear_range(base, end);
            } else {
                // Every byte reads as `UNINIT` and every slot as clean
                // past the (now empty) written prefix.
                alloc.buf.clear();
                alloc.slots.clear_all();
                // A slot whose footprint crosses the reserved end lives in
                // the spill dictionary; forget it like the legacy clear did.
                self.spill_caps.clear_range(base, end);
            }
        }
        // Hardware emulation keeps the stale bytes: freed memory reads back
        // its old contents until reused — which is exactly the §3.11
        // temporal-safety gap the test suite demonstrates.
        if self.cfg.revocation && dynamic {
            // Heap revocation (Cornucopia revokes heap capabilities).
            self.revoke_range(base, end);
        }
        Ok(())
    }

    /// Revocation sweep (§7 temporal-safety extension): clear the tag of
    /// every capability stored anywhere in memory whose decoded bounds
    /// *overlap* `[lo, hi)`. This models a Cornucopia/CHERIoT-style revoker;
    /// capabilities held only in registers are swept at the next epoch on
    /// real systems — here every C object lives in memory, so the sweep is
    /// complete.
    ///
    /// The overlap test — not "decoded base inside the freed range" — is
    /// essential: CHERI-Concentrate representability padding (§3.2) can
    /// round a derived capability's base *below* the freed allocation's
    /// base, and a capability spanning several objects starts before the
    /// freed one. Either way its footprint still covers freed memory, so a
    /// base-membership test would let it escape the sweep and stay usable
    /// after `free`.
    fn revoke_range(&mut self, lo: u64, hi: u64) {
        let before = self.stats.revoked_caps;
        self.revoke_range_sweep(lo, hi);
        let cleared = self.stats.revoked_caps - before;
        if cleared > 0 {
            self.stats.tag_clears += cleared;
            self.stats.tag_clears_by_reason[TagClearReason::Revoked.code() as usize] += cleared;
        }
        self.emit(|| MemEvent::Revoke {
            base: lo,
            end: hi,
            cleared,
        });
    }

    /// The sweep itself (increments `stats.revoked_caps` per hit).
    fn revoke_range_sweep(&mut self, lo: u64, hi: u64) {
        let cb = C::CAP_BYTES as u64;
        let overlaps = |cap: &C| {
            let b = cap.bounds();
            b.base < hi && b.top > u128::from(lo)
        };
        if self.cfg.legacy_store {
            let slots: Vec<u64> = self
                .bytes
                .keys()
                .copied()
                .filter(|a| a % cb == 0)
                .collect();
            for slot in slots {
                let meta = self.caps.get(slot);
                if !meta.tag {
                    continue;
                }
                let raw: Vec<u8> = (0..cb)
                    .map(|i| {
                        self.bytes
                            .get(&(slot + i))
                            .map(AbsByte::concrete)
                            .unwrap_or(0)
                    })
                    .collect();
                if let Some(cap) = C::decode(&raw, true) {
                    if overlaps(&cap) {
                        self.stats.revoked_caps += 1;
                        self.caps.set(
                            slot,
                            SlotMeta {
                                tag: false,
                                ghost: meta.ghost,
                            },
                        );
                    }
                }
            }
            return;
        }
        // Flat store: only tagged slots are visited, per allocation, instead
        // of every byte key in memory.
        let ids: Vec<AllocId> = self.index.iter().map(|e| e.2).collect();
        for id in ids {
            let a = self.alloc_ref(id).expect("indexed allocation");
            let mut hits: Vec<usize> = Vec::new();
            for k in a.slots.tagged_indices() {
                let slot = a.first_slot + k as u64 * cb;
                let off = (slot - a.base) as usize;
                let mut abs = [AbsByte::UNINIT; SCALAR_BUF];
                let abs = &mut abs[..cb as usize];
                a.read_into(off, abs);
                let raw: Vec<u8> = abs.iter().map(AbsByte::concrete).collect();
                if let Some(cap) = C::decode(&raw, true) {
                    if overlaps(&cap) {
                        hits.push(k);
                    }
                }
            }
            if hits.is_empty() {
                continue;
            }
            self.stats.revoked_caps += hits.len() as u64;
            let a = self.alloc_mut(id).expect("indexed allocation");
            for k in hits {
                let meta = a.slots.get(k);
                a.slots.set(
                    k,
                    SlotMeta {
                        tag: false,
                        ghost: meta.ghost,
                    },
                );
            }
        }
        // Capabilities stored outside every allocation footprint (spill).
        for slot in self.spill_caps.tagged_addrs() {
            let raw: Vec<u8> = self
                .read_bytes(slot, cb)
                .iter()
                .map(AbsByte::concrete)
                .collect();
            if let Some(cap) = C::decode(&raw, true) {
                if overlaps(&cap) {
                    self.stats.revoked_caps += 1;
                    let meta = self.spill_caps.get(slot);
                    self.spill_caps.set(
                        slot,
                        SlotMeta {
                            tag: false,
                            ghost: meta.ghost,
                        },
                    );
                }
            }
        }
    }

    /// `realloc`: allocate a new region, copy contents, free the old one.
    ///
    /// # Errors
    ///
    /// UB on an invalid old pointer; fails when the heap is exhausted.
    pub fn reallocate(&mut self, old: &PtrVal<C>, new_size: u64) -> MemResult<PtrVal<C>> {
        if old.is_null() {
            return self.allocate_region(new_size, 16);
        }
        let id = self
            .resolve_prov(&old.prov, old.addr(), 0)?
            .ok_or_else(|| MemError::ub(Ub::FreeInvalidPointer, "realloc of unknown pointer"))?;
        let (old_base, old_size, alive, kind) = {
            let a = self.alloc_ref(id).expect("indexed allocation");
            (a.base, a.size, a.alive, a.kind)
        };
        if !alive {
            return Err(MemError::ub(Ub::DoubleFree, "realloc of freed pointer"));
        }
        if kind != AllocKind::Heap || old.addr() != old_base {
            return Err(MemError::ub(
                Ub::FreeInvalidPointer,
                "realloc of a non-heap pointer",
            ));
        }
        let new = self.allocate_region(new_size, 16)?;
        let n = old_size.min(new_size);
        self.copy_bytes_raw(old_base, new.addr(), n);
        self.kill(old, true)?;
        Ok(new)
    }

    // ── Provenance ───────────────────────────────────────────────────────

    /// Mark the allocation identified by `prov` as exposed (PNVI-ae).
    pub fn expose(&mut self, prov: Provenance) {
        if let Provenance::Alloc(id) = prov {
            if let Some(a) = self.alloc_mut(id) {
                a.exposed = true;
            }
        }
    }

    /// Resolve a provenance to an allocation ID, resolving iotas against the
    /// access footprint `[addr, addr+size)` (PNVI-ae-udi user
    /// disambiguation).
    fn resolve_prov(
        &mut self,
        prov: &Provenance,
        addr: u64,
        size: u64,
    ) -> MemResult<Option<AllocId>> {
        match *prov {
            Provenance::Empty => Ok(None),
            Provenance::Alloc(id) => Ok(Some(id)),
            Provenance::Iota(iota) => {
                let state = *self
                    .iotas
                    .get(&iota)
                    .ok_or_else(|| MemError::Fail(format!("unknown iota {iota}")))?;
                match state {
                    IotaState::Resolved(id) => Ok(Some(id)),
                    IotaState::Ambiguous(a, b) => {
                        let fits = |id: AllocId, this: &Self| {
                            this.alloc_ref(id)
                                .is_some_and(|al| al.alive && al.contains_range(addr, size.max(1)))
                        };
                        let in_a = fits(a, self);
                        let in_b = fits(b, self);
                        let chosen = match (in_a, in_b) {
                            (true, false) => a,
                            (false, true) => b,
                            _ => {
                                return Err(MemError::ub(
                                    Ub::AmbiguousProvenance,
                                    format!("iota {iota} unresolvable at {addr:#x}"),
                                ))
                            }
                        };
                        self.iotas.insert(iota, IotaState::Resolved(chosen));
                        Ok(Some(chosen))
                    }
                }
            }
        }
    }

    /// PNVI-ae-udi integer-to-pointer provenance lookup: find the exposed,
    /// live allocation(s) whose footprint (or one-past point) contains
    /// `addr`.
    ///
    /// Resolved through the interval index instead of a linear scan: any
    /// allocation with `addr ∈ [base, end())` or `addr == end()` also has
    /// `addr` or `addr - 1` inside its *reserved* footprint (requested size
    /// ≤ reserved size, and an `end() == addr` match with `size > 0` covers
    /// `addr - 1`; a zero-sized allocation covers `addr` itself since at
    /// least one byte is always reserved). So the only candidates are the
    /// two index hits, examined in ascending ID order exactly like the old
    /// full scan.
    fn lookup_provenance(&mut self, addr: u64) -> Provenance {
        let mut cand = [
            addr.checked_sub(1)
                .and_then(|a| self.index_pos(a))
                .map(|i| self.index[i].2),
            self.index_pos(addr).map(|i| self.index[i].2),
        ];
        if cand[0] == cand[1] {
            cand[0] = None;
        }
        let mut ids: Vec<AllocId> = cand.into_iter().flatten().collect();
        ids.sort_unstable();
        let mut inside: Option<AllocId> = None;
        let mut one_past: Option<AllocId> = None;
        for id in ids {
            let a = self.alloc_ref(id).expect("indexed allocation");
            if !a.alive || !a.exposed {
                continue;
            }
            if addr >= a.base && addr < a.end() {
                inside = Some(id);
            } else if addr == a.end() {
                one_past = Some(id);
            }
        }
        match (inside, one_past) {
            (Some(i), None) => Provenance::Alloc(i),
            (None, Some(p)) => Provenance::Alloc(p),
            (Some(i), Some(p)) => {
                // The address is both one-past allocation `p` and the start
                // of allocation `i`: defer the choice (udi).
                let iota = IotaId(self.next_iota);
                self.next_iota += 1;
                self.iotas.insert(iota, IotaState::Ambiguous(p, i));
                Provenance::Iota(iota)
            }
            (None, None) => Provenance::Empty,
        }
    }

    // ── Access checking (the bounds_check of §4.3) ───────────────────────

    fn cap_fail(&self, ub: Ub, trap: TrapKind, ctx: &str) -> MemError {
        if self.cfg.abstract_ub {
            MemError::ub(ub, ctx)
        } else {
            MemError::trap(trap, ctx)
        }
    }

    /// The full access check: architectural capability checks (tag, ghost
    /// tag, seal, permissions, bounds — the (1†) clauses) followed by the
    /// abstract-machine provenance checks (the (1f)/(1g) clauses).
    ///
    /// On the flat store under abstract UB it returns the `allocations`
    /// index of the live allocation it proved contains the whole access,
    /// and the byte and slot helpers then use that allocation directly
    /// instead of searching the interval index again. Otherwise (hardware
    /// profiles, the legacy store) it returns `None` and they search.
    fn check_access(
        &mut self,
        p: &PtrVal<C>,
        size: u64,
        access: Access,
    ) -> MemResult<Option<usize>> {
        let addr = p.addr();
        if self.cfg.capabilities {
            let c = &p.cap;
            if p.is_null() || (addr == 0 && !c.tag()) {
                return Err(MemError::ub(Ub::NullDereference, "null capability"));
            }
            if c.ghost().tag_unspecified {
                return Err(MemError::ub(
                    Ub::CheriUndefinedTag,
                    "capability tag is unspecified in ghost state",
                ));
            }
            if !c.tag() {
                return Err(self.cap_fail(
                    Ub::CheriInvalidCap,
                    TrapKind::TagViolation,
                    "capability tag cleared",
                ));
            }
            if c.is_sealed() {
                return Err(self.cap_fail(
                    Ub::CheriInvalidCap,
                    TrapKind::TagViolation,
                    "capability is sealed",
                ));
            }
            let need = match access {
                Access::Load => Perms::LOAD,
                Access::Store => Perms::STORE,
            };
            if !c.perms().contains(need) {
                return Err(self.cap_fail(
                    Ub::CheriInsufficientPermissions,
                    TrapKind::PermissionViolation,
                    "missing load/store permission",
                ));
            }
            if !c.bounds().contains_range(addr, size) {
                return Err(self.cap_fail(
                    Ub::CheriBoundsViolation,
                    TrapKind::BoundsViolation,
                    &format!("access [{:#x},+{}) outside bounds {}", addr, size, c.bounds()),
                ));
            }
        } else if addr == 0 {
            return Err(MemError::ub(Ub::NullDereference, "null pointer"));
        }
        if self.cfg.abstract_ub {
            let id = self.resolve_prov(&p.prov, addr, size)?.ok_or_else(|| {
                MemError::ub(
                    Ub::EmptyProvenanceAccess,
                    format!("access via empty-provenance pointer {addr:#x}"),
                )
            })?;
            let a = self
                .alloc_ref(id)
                .ok_or_else(|| MemError::Fail(format!("unknown allocation {id}")))?;
            if !a.alive {
                return Err(MemError::ub(
                    Ub::AccessDeadAllocation,
                    format!("{} ({})", id, a.prefix),
                ));
            }
            if !a.contains_range(addr, size) {
                return Err(MemError::ub(
                    Ub::AccessOutOfBounds,
                    format!(
                        "[{:#x},+{}) outside {} [{:#x},+{})",
                        addr, size, id, a.base, a.size
                    ),
                ));
            }
            if access == Access::Store && !a.writable() {
                return Err(MemError::ub(
                    Ub::WriteToReadOnly,
                    format!("{} ({})", id, a.prefix),
                ));
            }
            // Reserved footprints never overlap, so the interval index
            // would find this same allocation for every byte of the access.
            return Ok((!self.cfg.legacy_store).then(|| (id.0 - 1) as usize));
        }
        Ok(None)
    }

    // ── Byte-level helpers (the B and C dictionaries) ────────────────────
    //
    // Every byte and capability-slot access below dispatches on
    // `cfg.legacy_store`: the legacy path keeps the original global
    // `BTreeMap` dictionaries, the flat path routes through the interval
    // index into per-allocation buffers/bitsets. Checked accesses always
    // land inside one allocation's reserved footprint (capability bounds
    // are confined to it by representability padding), so the segment walks
    // below take the single-allocation fast path in practice; the gap/spill
    // branches only exist for padded-out-of-allocation capabilities. A
    // `hit` argument is the allocation `check_access` already proved holds
    // the whole access; given one, a helper skips the index walk.

    /// Interval-index position of the allocation whose *reserved* footprint
    /// contains `addr`.
    #[inline]
    fn index_pos(&self, addr: u64) -> Option<usize> {
        let i = self.index.partition_point(|e| e.0 <= addr);
        (i > 0 && addr < self.index[i - 1].1).then(|| i - 1)
    }

    /// The allocation whose reserved footprint contains `addr` (flat store).
    #[inline]
    fn alloc_at(&self, addr: u64) -> Option<&Allocation> {
        self.index_pos(addr)
            .map(|i| self.alloc_ref(self.index[i].2).expect("indexed allocation"))
    }

    fn read_bytes(&self, addr: u64, n: u64) -> Vec<AbsByte> {
        let mut out = vec![AbsByte::UNINIT; n as usize];
        self.read_bytes_into(None, addr, &mut out);
        out
    }

    /// [`CheriMemory::read_bytes`] into a caller-provided buffer: the
    /// scalar load path uses a stack buffer to keep `Vec` allocations off
    /// the per-access hot path. `hit` is [`CheriMemory::check_access`]'s
    /// allocation for this access, if it found one.
    fn read_bytes_into(&self, hit: Option<usize>, addr: u64, out: &mut [AbsByte]) {
        if let Some(i) = hit {
            let a = &self.allocations[i];
            a.read_into((addr - a.base) as usize, out);
            return;
        }
        let n = out.len() as u64;
        if self.cfg.legacy_store {
            for (i, o) in out.iter_mut().enumerate() {
                *o = self
                    .bytes
                    .get(&(addr + i as u64))
                    .copied()
                    .unwrap_or(AbsByte::UNINIT);
            }
            return;
        }
        let end = addr + n;
        let mut cur = addr;
        while cur < end {
            if let Some(i) = self.index_pos(cur) {
                let (base, a_end, id) = self.index[i];
                let a = self.alloc_ref(id).expect("indexed allocation");
                let take = (a_end.min(end) - cur) as usize;
                let off = (cur - base) as usize;
                let dst = (cur - addr) as usize;
                a.read_into(off, &mut out[dst..dst + take]);
                cur += take as u64;
            } else {
                let j = self.index.partition_point(|e| e.0 <= cur);
                let stop = self
                    .index
                    .get(j)
                    .map_or(end, |e| e.0.min(end));
                if !self.spill.is_empty() {
                    for (k, b) in self.spill.range(cur..stop) {
                        out[(k - addr) as usize] = *b;
                    }
                }
                cur = stop;
            }
        }
    }

    /// Write abstract bytes verbatim (provenance and copy indices intact).
    fn write_abs_bytes(&mut self, hit: Option<usize>, addr: u64, data: &[AbsByte]) {
        if let Some(i) = hit {
            let a = &mut self.allocations[i];
            a.bytes_mut((addr - a.base) as usize, data.len()).copy_from_slice(data);
            return;
        }
        if self.cfg.legacy_store {
            for (i, b) in data.iter().enumerate() {
                self.bytes.insert(addr + i as u64, *b);
            }
            return;
        }
        let end = addr + data.len() as u64;
        let mut cur = addr;
        while cur < end {
            if let Some(i) = self.index_pos(cur) {
                let (base, a_end, id) = self.index[i];
                let take = (a_end.min(end) - cur) as usize;
                let off = (cur - base) as usize;
                let src = (cur - addr) as usize;
                let a = self.alloc_mut(id).expect("indexed allocation");
                a.bytes_mut(off, take).copy_from_slice(&data[src..src + take]);
                cur += take as u64;
            } else {
                let j = self.index.partition_point(|e| e.0 <= cur);
                let stop = self
                    .index
                    .get(j)
                    .map_or(end, |e| e.0.min(end));
                for k in cur..stop {
                    self.spill.insert(k, data[(k - addr) as usize]);
                }
                cur = stop;
            }
        }
    }

    /// Capability-slot metadata at aligned address `addr`.
    fn slot_get(&self, hit: Option<usize>, addr: u64) -> SlotMeta {
        if self.cfg.legacy_store {
            return self.caps.get(addr);
        }
        let cb = C::CAP_BYTES as u64;
        let a = match hit {
            Some(i) => Some(&self.allocations[i]),
            None => self.alloc_at(addr),
        };
        if let Some(a) = a {
            if let Some(k) = a.slot_index(addr, cb) {
                return a.slots.get(k);
            }
        }
        self.spill_caps.get(addr)
    }

    /// Record capability-slot metadata at aligned address `addr`.
    fn slot_set(&mut self, hit: Option<usize>, addr: u64, meta: SlotMeta) {
        if self.cfg.legacy_store {
            self.caps.set(addr, meta);
            return;
        }
        let cb = C::CAP_BYTES as u64;
        let a = match hit {
            Some(i) => Some(&mut self.allocations[i]),
            None => {
                let id = self.index_pos(addr).map(|j| self.index[j].2);
                id.and_then(|id| self.alloc_mut(id))
            }
        };
        if let Some(a) = a {
            if let Some(k) = a.slot_index(addr, cb) {
                a.slots.set(k, meta);
                return;
            }
        }
        self.spill_caps.set(addr, meta);
    }

    /// Invalidate every capability slot whose footprint overlaps `[lo, hi)`
    /// (§4.3 non-capability write rule), mirroring
    /// [`CapMeta::invalidate_range`] exactly. `reason` attributes the
    /// clears in the stats histogram and the emitted event; both storage
    /// modes count affected slots with the same condition, so the counters
    /// are store-mode invariant.
    fn caps_invalidate(&mut self, hit: Option<usize>, lo: u64, hi: u64, reason: TagClearReason) {
        let cb = C::CAP_BYTES as u64;
        let mode = self.cfg.tag_invalidation;
        let affected = if self.cfg.legacy_store {
            self.caps.invalidate_range(lo, hi, cb, mode)
        } else {
            self.caps_invalidate_flat(hit, lo, hi)
        };
        if affected > 0 {
            self.stats.tag_clears += affected as u64;
            self.stats.tag_clears_by_reason[reason.code() as usize] += affected as u64;
            self.emit(|| MemEvent::CapTagClear {
                addr: lo,
                count: affected as u64,
                reason,
            });
        }
    }

    /// Flat-store body of [`CheriMemory::caps_invalidate`]; returns the
    /// number of slots affected (same counting rule as
    /// [`CapMeta::invalidate_range`]). With a `hit` the range lies inside
    /// that allocation, and no other allocation's slot can overlap it.
    fn caps_invalidate_flat(&mut self, hit: Option<usize>, lo: u64, hi: u64) -> usize {
        let cb = C::CAP_BYTES as u64;
        let mode = self.cfg.tag_invalidation;
        if hi <= lo {
            return 0;
        }
        let mut affected = 0;
        let first = lo & !(cb - 1);
        if let Some(i) = hit {
            affected += invalidate_slots(&mut self.allocations[i], first, hi, cb, mode);
        } else {
            let mut pos = self.index.partition_point(|e| e.1 <= first);
            while pos < self.index.len() && self.index[pos].0 < hi {
                let id = self.index[pos].2;
                let a = self.alloc_mut(id).expect("indexed allocation");
                affected += invalidate_slots(a, first, hi, cb, mode);
                pos += 1;
            }
        }
        if !self.spill_caps.is_empty() {
            affected += self.spill_caps.invalidate_range(lo, hi, cb, mode);
        }
        affected
    }

    fn write_data_bytes(&mut self, hit: Option<usize>, addr: u64, data: &[u8]) {
        let end = addr + data.len() as u64;
        if let Some(i) = hit {
            let a = &mut self.allocations[i];
            let off = (addr - a.base) as usize;
            for (o, d) in a.bytes_mut(off, data.len()).iter_mut().zip(data) {
                *o = AbsByte::data(*d);
            }
        } else if self.cfg.legacy_store {
            for (i, b) in data.iter().enumerate() {
                self.bytes.insert(addr + i as u64, AbsByte::data(*b));
            }
        } else {
            let mut cur = addr;
            while cur < end {
                if let Some(i) = self.index_pos(cur) {
                    let (base, a_end, id) = self.index[i];
                    let take = (a_end.min(end) - cur) as usize;
                    let off = (cur - base) as usize;
                    let src = (cur - addr) as usize;
                    let a = self.alloc_mut(id).expect("indexed allocation");
                    for (o, d) in a.bytes_mut(off, take).iter_mut().zip(&data[src..src + take]) {
                        *o = AbsByte::data(*d);
                    }
                    cur += take as u64;
                } else {
                    let j = self.index.partition_point(|e| e.0 <= cur);
                    let stop = self
                        .index
                        .get(j)
                        .map_or(end, |e| e.0.min(end));
                    for k in cur..stop {
                        self.spill.insert(k, AbsByte::data(data[(k - addr) as usize]));
                    }
                    cur = stop;
                }
            }
        }
        self.caps_invalidate(hit, addr, end, TagClearReason::NonCapWrite);
        self.stats.stores += 1;
    }

    /// Raw byte copy without checks (used by realloc internally).
    fn copy_bytes_raw(&mut self, src: u64, dst: u64, n: u64) {
        let bytes = self.read_bytes(src, n);
        self.write_abs_bytes(None, dst, &bytes);
        // The copy is a (possibly partial) representation write to the
        // destination: any capability whose slot it touches is invalidated…
        let cb = C::CAP_BYTES as u64;
        self.caps_invalidate(None, dst, dst + n, TagClearReason::Memcpy);
        // …and then capability-aligned, fully-copied slots get the source
        // metadata transferred (§3.5: memcpy uses capability-sized accesses
        // where possible, preserving tags).
        if src % cb == dst % cb {
            let mut slot = (src + cb - 1) & !(cb - 1);
            while slot + cb <= src + n {
                let meta = self.slot_get(None, slot);
                self.slot_set(None, dst + (slot - src), meta);
                slot += cb;
            }
        }
    }

    /// The `expose(A, I_tainted)` step of the load rule: loading pointer
    /// bytes at an integer type exposes the allocations those bytes point
    /// into (clause (2g) of §4.3).
    fn expose_tainted(&mut self, bytes: &[AbsByte]) {
        let tainted: Vec<AllocId> = bytes.iter().filter_map(|b| b.prov().alloc_id()).collect();
        for id in tainted {
            if let Some(a) = self.alloc_mut(id) {
                if a.alive {
                    a.exposed = true;
                }
            }
        }
    }

    // ── Scalar loads and stores ──────────────────────────────────────────

    /// Load an integer of `size` bytes. `want_intptr` selects the
    /// `(u)intptr_t` behaviour: a capability value is reconstructed from the
    /// stored representation and metadata (§4.3).
    ///
    /// # Errors
    ///
    /// All the UBs of the load rule: capability and provenance check
    /// failures, and uninitialised reads.
    pub fn load_int(
        &mut self,
        p: &PtrVal<C>,
        size: u64,
        signed: bool,
        want_intptr: bool,
    ) -> MemResult<IntVal<C>> {
        let hit = self.check_access(p, size, Access::Load)?;
        let addr = p.addr();
        let mut stack = [AbsByte::UNINIT; SCALAR_BUF];
        let mut heap: Vec<AbsByte>;
        let bytes: &[AbsByte] = if size as usize <= SCALAR_BUF {
            let window = &mut stack[..size as usize];
            self.read_bytes_into(hit, addr, window);
            window
        } else {
            heap = vec![AbsByte::UNINIT; size as usize];
            self.read_bytes_into(hit, addr, &mut heap);
            &heap
        };
        if bytes.iter().any(|b| !b.is_init()) {
            if bytes.iter().any(super::absbyte::AbsByte::is_init) && want_intptr {
                // Partially-initialised capability representation: a trap
                // representation (§4.2, UB012).
                return Err(MemError::ub(
                    Ub::LvalueReadTrapRepresentation,
                    "partially initialised capability representation",
                ));
            }
            return Err(MemError::ub(
                Ub::UninitialisedRead,
                format!("read of uninitialised memory at {addr:#x}"),
            ));
        }
        self.stats.loads += 1;
        self.emit(|| MemEvent::Load {
            addr,
            size,
            intptr: want_intptr,
        });
        if want_intptr && self.cfg.capabilities && size == C::CAP_BYTES as u64 {
            let mut raw = [0u8; SCALAR_BUF];
            for (r, b) in raw.iter_mut().zip(bytes) {
                *r = b.concrete();
            }
            let raw = &raw[..size as usize];
            let prov = recover_provenance(bytes);
            let (cap, ghost_extra) = if addr.is_multiple_of(C::CAP_BYTES as u64) {
                let meta = self.slot_get(hit, addr);
                let cap = C::decode(raw, meta.tag)
                    .ok_or_else(|| MemError::Fail("capability decode".into()))?;
                (cap.with_ghost(meta.ghost), GhostState::CLEAN)
            } else {
                let cap = C::decode(raw, false)
                    .ok_or_else(|| MemError::Fail("capability decode".into()))?;
                (cap, GhostState::CLEAN)
            };
            let cap = cap.with_ghost(cap.ghost().join(ghost_extra));
            return Ok(IntVal::Cap {
                signed,
                cap,
                prov,
            });
        }
        // Plain integer: examining these bytes exposes any pointer
        // representations they belong to (PNVI-ae).
        self.expose_tainted(bytes);
        let mut v: i128 = 0;
        for (i, b) in bytes.iter().enumerate() {
            v |= i128::from(b.concrete()) << (8 * i);
        }
        if signed && size < 16 {
            let shift = 128 - 8 * size as u32;
            v = (v << shift) >> shift;
        }
        Ok(IntVal::Num(v))
    }

    /// Store an integer of `size` bytes.
    ///
    /// # Errors
    ///
    /// Capability/provenance check failures as for loads, plus
    /// [`Ub::WriteToReadOnly`].
    pub fn store_int(&mut self, p: &PtrVal<C>, size: u64, v: &IntVal<C>) -> MemResult<()> {
        let hit = self.check_access(p, size, Access::Store)?;
        let addr = p.addr();
        self.emit(|| MemEvent::Store { addr, size });
        match v {
            IntVal::Cap { cap, prov, .. }
                if self.cfg.capabilities && size == C::CAP_BYTES as u64 =>
            {
                self.store_cap_bytes(hit, addr, cap, *prov);
                Ok(())
            }
            _ => {
                let n = v.value();
                if size as usize <= SCALAR_BUF {
                    let mut data = [0u8; SCALAR_BUF];
                    for (i, d) in data[..size as usize].iter_mut().enumerate() {
                        *d = (n >> (8 * i)) as u8;
                    }
                    self.write_data_bytes(hit, addr, &data[..size as usize]);
                } else {
                    let data: Vec<u8> = (0..size).map(|i| (n >> (8 * i)) as u8).collect();
                    self.write_data_bytes(hit, addr, &data);
                }
                Ok(())
            }
        }
    }

    /// Load a pointer value (the §4.3 load rule at pointer type).
    ///
    /// # Errors
    ///
    /// As for [`CheriMemory::load_int`].
    pub fn load_ptr(&mut self, p: &PtrVal<C>) -> MemResult<PtrVal<C>> {
        let size = self.pointer_bytes() as u64;
        let hit = self.check_access(p, size, Access::Load)?;
        let addr = p.addr();
        let mut stack = [AbsByte::UNINIT; SCALAR_BUF];
        let bytes = &mut stack[..size as usize];
        self.read_bytes_into(hit, addr, bytes);
        if bytes.iter().any(|b| !b.is_init()) {
            if bytes.iter().any(super::absbyte::AbsByte::is_init) {
                return Err(MemError::ub(
                    Ub::LvalueReadTrapRepresentation,
                    "partially initialised pointer representation",
                ));
            }
            return Err(MemError::ub(
                Ub::UninitialisedRead,
                format!("read of uninitialised pointer at {addr:#x}"),
            ));
        }
        self.stats.loads += 1;
        let mut raw = [0u8; SCALAR_BUF];
        for (r, b) in raw.iter_mut().zip(bytes.iter()) {
            *r = b.concrete();
        }
        let raw = &raw[..size as usize];
        let prov = recover_provenance(bytes);
        if self.cfg.capabilities {
            let (tag, ghost) = if addr.is_multiple_of(C::CAP_BYTES as u64) {
                let meta = self.slot_get(hit, addr);
                (meta.tag, meta.ghost)
            } else {
                (false, GhostState::CLEAN)
            };
            let cap = C::decode(raw, tag)
                .ok_or_else(|| MemError::Fail("capability decode".into()))?
                .with_ghost(ghost);
            Ok(PtrVal::new(prov, cap))
        } else {
            let mut a: u64 = 0;
            for (i, b) in raw.iter().enumerate() {
                a |= u64::from(*b) << (8 * i);
            }
            Ok(PtrVal::new(prov, C::root().with_address(a)))
        }
    }

    /// Store a pointer value.
    ///
    /// # Errors
    ///
    /// As for [`CheriMemory::store_int`].
    pub fn store_ptr(&mut self, p: &PtrVal<C>, v: &PtrVal<C>) -> MemResult<()> {
        let size = self.pointer_bytes() as u64;
        let hit = self.check_access(p, size, Access::Store)?;
        if self.cfg.capabilities {
            self.store_cap_bytes(hit, p.addr(), &v.cap, v.prov);
        } else {
            let a = v.addr();
            let addr = p.addr();
            let mut abs = [AbsByte::UNINIT; SCALAR_BUF];
            for (i, o) in abs[..size as usize].iter_mut().enumerate() {
                *o = AbsByte::pointer(v.prov, (a >> (8 * i)) as u8, i as u8);
            }
            self.write_abs_bytes(hit, addr, &abs[..size as usize]);
            self.stats.stores += 1;
        }
        Ok(())
    }

    fn store_cap_bytes(&mut self, hit: Option<usize>, addr: u64, cap: &C, prov: Provenance) {
        let enc = cap.encode();
        let cb = C::CAP_BYTES as u64;
        let mut abs = [AbsByte::UNINIT; SCALAR_BUF];
        for (i, o) in abs[..enc.len()].iter_mut().enumerate() {
            *o = AbsByte::pointer(prov, enc[i], i as u8);
        }
        self.write_abs_bytes(hit, addr, &abs[..enc.len()]);
        if addr.is_multiple_of(cb) {
            self.slot_set(
                hit,
                addr,
                SlotMeta {
                    tag: cap.tag(),
                    ghost: cap.ghost(),
                },
            );
        } else {
            // Misaligned capability store: the tag cannot be represented.
            self.caps_invalidate(hit, addr, addr + cb, TagClearReason::MisalignedStore);
        }
        self.stats.stores += 1;
    }

    // ── memcpy / memset / memcmp ─────────────────────────────────────────

    /// `memcpy` / `memmove`: copies bytes *and* capability metadata for
    /// capability-aligned chunks, as CHERI C requires (§3.5: "memcpy must be
    /// implemented with capability-sized and aligned accesses where
    /// possible, to preserve pointers").
    ///
    /// # Errors
    ///
    /// Access-check failures on either range.
    pub fn memcpy(&mut self, dst: &PtrVal<C>, src: &PtrVal<C>, n: u64) -> MemResult<()> {
        if n == 0 {
            return Ok(());
        }
        self.check_access(src, n, Access::Load)?;
        self.check_access(dst, n, Access::Store)?;
        let (s_addr, d_addr) = (src.addr(), dst.addr());
        self.stats.memcpy_bytes += n;
        self.emit(|| MemEvent::Memcpy {
            dst: d_addr,
            src: s_addr,
            n,
        });
        self.copy_bytes_raw(s_addr, d_addr, n);
        Ok(())
    }

    /// `memset`.
    ///
    /// # Errors
    ///
    /// Access-check failures on the range.
    pub fn memset(&mut self, dst: &PtrVal<C>, byte: u8, n: u64) -> MemResult<()> {
        if n == 0 {
            return Ok(());
        }
        let hit = self.check_access(dst, n, Access::Store)?;
        let data = vec![byte; n as usize];
        self.write_data_bytes(hit, dst.addr(), &data);
        Ok(())
    }

    /// `memcmp`.
    ///
    /// # Errors
    ///
    /// Access-check failures; in abstract-machine mode, UB on comparing
    /// uninitialised bytes. The hardware-emulation profiles instead compare
    /// the stale concrete bytes (real memory has no "uninitialised" state —
    /// the same behaviour [`CheriMemory::kill`] documents for freed memory).
    pub fn memcmp(&mut self, a: &PtrVal<C>, b: &PtrVal<C>, n: u64) -> MemResult<i32> {
        if n == 0 {
            return Ok(0);
        }
        self.check_access(a, n, Access::Load)?;
        self.check_access(b, n, Access::Load)?;
        let ba = self.read_bytes(a.addr(), n);
        let bb = self.read_bytes(b.addr(), n);
        for (x, y) in ba.iter().zip(bb.iter()) {
            let (x, y) = if self.cfg.abstract_ub {
                match (x.value(), y.value()) {
                    (Some(x), Some(y)) => (x, y),
                    _ => {
                        return Err(MemError::ub(
                            Ub::UninitialisedRead,
                            "memcmp of uninitialised bytes",
                        ))
                    }
                }
            } else {
                (x.concrete(), y.concrete())
            };
            if x != y {
                return Ok(if x < y { -1 } else { 1 });
            }
        }
        Ok(0)
    }

    // ── Pointer arithmetic and comparison ────────────────────────────────

    /// Pointer + integer (array indexing). Applies the ISO rule (§3.2
    /// option (a)): in abstract mode, constructing a pointer below the
    /// allocation or more than one past it is UB. The capability address is
    /// updated either way, with hardware tag-clearing on
    /// non-representability.
    ///
    /// # Errors
    ///
    /// [`Ub::OutOfBoundPtrArithmetic`] in abstract mode.
    pub fn array_shift(&mut self, p: &PtrVal<C>, elem: u64, index: i64) -> MemResult<PtrVal<C>> {
        let delta = (elem as i128) * (index as i128);
        let new_addr = (p.addr() as i128).wrapping_add(delta) as u64;
        if self.cfg.abstract_ub {
            if let Some(id) = self.resolve_prov(&p.prov, p.addr(), 0)? {
                let a = self.alloc_ref(id).expect("indexed allocation");
                if !a.contains_or_one_past(new_addr) {
                    return Err(MemError::ub(
                        Ub::OutOfBoundPtrArithmetic,
                        format!(
                            "{:#x} is outside [{:#x},{:#x}]",
                            new_addr,
                            a.base,
                            a.end()
                        ),
                    ));
                }
            }
        }
        self.stats.representability_checks += 1;
        let cap = p.cap.with_address(new_addr);
        self.emit(|| MemEvent::CapDerive {
            from: p.addr(),
            to: new_addr,
            tag_cleared: p.cap.tag() && !cap.tag(),
        });
        Ok(PtrVal::new(p.prov, cap))
    }

    /// Pointer + byte offset for struct member access; stays within the
    /// object by construction, so no arithmetic UB check is needed.
    #[must_use]
    pub fn member_shift(&self, p: &PtrVal<C>, offset: u64) -> PtrVal<C> {
        PtrVal::new(p.prov, p.cap.with_address(p.addr().wrapping_add(offset)))
    }

    /// Pointer subtraction, in units of `elem` bytes.
    ///
    /// # Errors
    ///
    /// UB when the provenances differ (§3.11 check (2)). A zero-sized
    /// element type is a hard [`MemError::Fail`]: it cannot arise from
    /// well-typed C, so reaching it is an interpreter bug we want loud,
    /// not masked by silently dividing by 1.
    pub fn ptr_diff(&mut self, a: &PtrVal<C>, b: &PtrVal<C>, elem: u64) -> MemResult<i64> {
        if self.cfg.abstract_ub {
            let ia = self.resolve_prov(&a.prov, a.addr(), 0)?;
            let ib = self.resolve_prov(&b.prov, b.addr(), 0)?;
            if ia.is_none() || ia != ib {
                return Err(MemError::ub(
                    Ub::PtrDiffDifferentProvenance,
                    format!("{} vs {}", a.prov, b.prov),
                ));
            }
        }
        if elem == 0 {
            return Err(MemError::Fail(
                "pointer subtraction with zero-sized element type".into(),
            ));
        }
        let d = (a.addr() as i128 - b.addr() as i128) / elem as i128;
        Ok(d as i64)
    }

    /// Relational comparison (`<` etc.). Returns `Ordering` by address.
    ///
    /// # Errors
    ///
    /// UB when provenances differ, in abstract mode (ISO 6.5.8p5).
    pub fn ptr_rel_cmp(
        &mut self,
        a: &PtrVal<C>,
        b: &PtrVal<C>,
    ) -> MemResult<std::cmp::Ordering> {
        if self.cfg.abstract_ub {
            let ia = self.resolve_prov(&a.prov, a.addr(), 0)?;
            let ib = self.resolve_prov(&b.prov, b.addr(), 0)?;
            if ia.is_none() || ia != ib {
                return Err(MemError::ub(
                    Ub::RelationalCompareDifferentProvenance,
                    format!("{} vs {}", a.prov, b.prov),
                ));
            }
        }
        Ok(a.addr().cmp(&b.addr()))
    }

    /// Pointer equality: address-only (§3.6 option (3)) — never UB, and
    /// deliberately ignores tags, bounds and permissions.
    #[must_use]
    pub fn ptr_eq(&self, a: &PtrVal<C>, b: &PtrVal<C>) -> bool {
        a.addr() == b.addr()
    }

    // ── Pointer/integer conversions (§3.3, PNVI-ae-udi) ──────────────────

    /// Cast pointer → integer. For `(u)intptr_t` targets the capability is
    /// preserved (§3.4); for narrower integer types the address is
    /// truncated. Either way the allocation is marked exposed (PNVI-ae).
    pub fn cast_ptr_to_int(
        &mut self,
        p: &PtrVal<C>,
        to_intptr: bool,
        signed: bool,
        size: u64,
    ) -> IntVal<C> {
        self.expose(p.prov);
        if to_intptr {
            IntVal::Cap {
                signed,
                cap: p.cap,
                prov: p.prov,
            }
        } else {
            let mut v = i128::from(p.addr());
            if size < 16 {
                let shift = 128 - 8 * size as u32;
                v = if signed {
                    (v << shift) >> shift
                } else {
                    ((v << shift) as u128 >> shift) as i128
                };
            }
            IntVal::Num(v)
        }
    }

    /// Cast integer → pointer. A capability-carrying value keeps its
    /// capability (round-trip, §3.3); provenance is the carried one when
    /// still valid, otherwise the PNVI-ae-udi exposed-allocation lookup.
    /// A pure numeric value yields an untagged null-derived capability.
    pub fn cast_int_to_ptr(&mut self, v: &IntVal<C>) -> PtrVal<C> {
        match v {
            IntVal::Num(0) => PtrVal::null(),
            IntVal::Num(n) => {
                let addr = *n as u64;
                let prov = self.lookup_provenance(addr);
                PtrVal::new(prov, C::null().with_address(addr))
            }
            IntVal::Cap { cap, prov, .. } => {
                let addr = cap.address();
                let live = prov
                    .alloc_id()
                    .and_then(|id| self.alloc_ref(id))
                    .is_some_and(|a| a.alive && a.contains_or_one_past(addr));
                let prov = if live { *prov } else { self.lookup_provenance(addr) };
                PtrVal::new(prov, *cap)
            }
        }
    }

    /// Mark an allocation read-only after initialisation and return a
    /// read-only capability to it. Used for `const` objects (§3.9): the
    /// interpreter allocates writable, runs the initialiser, then freezes.
    ///
    /// # Errors
    ///
    /// Fails if the pointer has no resolvable provenance.
    pub fn freeze_readonly(&mut self, p: &PtrVal<C>) -> MemResult<PtrVal<C>> {
        let id = self
            .resolve_prov(&p.prov, p.addr(), 0)?
            .ok_or_else(|| MemError::Fail("freeze of unknown allocation".into()))?;
        if let Some(a) = self.alloc_mut(id) {
            a.readonly = true;
        }
        let cap = if self.cfg.capabilities {
            p.cap.with_perms_and(Perms::data_readonly())
        } else {
            p.cap
        };
        Ok(PtrVal::new(p.prov, cap))
    }

    // ── Introspection ────────────────────────────────────────────────────

    /// The allocation map (diagnostics and tests).
    #[must_use]
    pub fn allocations(&self) -> &[Allocation] {
        &self.allocations
    }

    /// A single allocation by ID (diagnostics and tests).
    #[must_use]
    pub fn allocation(&self, id: AllocId) -> Option<&Allocation> {
        self.alloc_ref(id)
    }

    /// Find the live allocation containing `addr`, if any.
    #[must_use]
    pub fn find_live(&self, addr: u64) -> Option<&Allocation> {
        // The reserved footprint is a superset of the requested one, so the
        // index hit is the only possible candidate.
        self.alloc_at(addr)
            .filter(|a| a.alive && addr >= a.base && addr < a.end())
    }

    /// Number of tagged capabilities currently in memory.
    #[must_use]
    pub fn tagged_caps_in_memory(&self) -> usize {
        if self.cfg.legacy_store {
            self.caps.tagged_count()
        } else {
            self.allocations
                .iter()
                .map(|a| a.slots.tagged_count())
                .sum::<usize>()
                + self.spill_caps.tagged_count()
        }
    }

    /// Direct access to the capability metadata of an aligned slot (tests).
    #[must_use]
    pub fn cap_meta_at(&self, addr: u64) -> SlotMeta {
        self.slot_get(None, addr)
    }
}
