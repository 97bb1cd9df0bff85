//! Allocations (the `A` component of `mem_state`).
//!
//! Each allocation records its footprint, liveness, kind, whether it is
//! read-only (for `const`-qualified objects, §3.9) and whether it has been
//! *exposed* by having a pointer to it cast to an integer or its
//! representation examined (PNVI-*ae*, §2.3).

use crate::absbyte::AbsByte;
use crate::capmeta::CapSlotBits;
use crate::AllocId;

/// Bytes of a flat-store allocation materialised at once on its first
/// write (or the whole reserved footprint, if smaller); beyond it the
/// written prefix grows by doubling.
const MATERIALISE_MIN: usize = 4096;

/// How an allocation was created.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AllocKind {
    /// A local (automatic storage duration) object.
    Auto,
    /// A global (static storage duration) object.
    Static,
    /// A dynamic region from `malloc`/`calloc`/`realloc`.
    Heap,
    /// A function's "object" — functions get allocations so function
    /// pointers have provenance and (degenerate) bounds.
    Function,
    /// A string literal.
    StringLiteral,
}

impl AllocKind {
    /// Is this allocation writable at all?
    #[must_use]
    pub fn inherently_readonly(self) -> bool {
        matches!(self, AllocKind::Function | AllocKind::StringLiteral)
    }
}

/// One allocation in the abstract machine.
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Unique ID (the provenance `@i`).
    pub id: AllocId,
    /// Base virtual address.
    pub base: u64,
    /// Size in bytes as requested by the program.
    pub size: u64,
    /// Size in bytes actually reserved (>= `size` when padding was needed
    /// for capability representability, §3.2).
    pub reserved_size: u64,
    /// Alignment of `base`.
    pub align: u64,
    /// Storage kind.
    pub kind: AllocKind,
    /// Still live?
    pub alive: bool,
    /// Marked exposed by a pointer-to-integer cast or representation access
    /// (PNVI-ae).
    pub exposed: bool,
    /// Read-only (`const`-qualified object or inherently read-only kind).
    pub readonly: bool,
    /// Diagnostic name (variable name or `"malloc"`).
    pub prefix: String,
    /// Flat-store byte contents: the prefix of the *reserved* footprint
    /// written so far, one [`AbsByte`] per byte. Bytes at or past its length
    /// read as [`AbsByte::UNINIT`] (what the legacy global byte dictionary
    /// returns for an absent key), so the hardware-emulation profiles still
    /// read stale and padding bytes, and the cost of an allocation follows
    /// the bytes touched, not its size. Empty when the instance runs with
    /// [`MemConfig::legacy_store`](crate::MemConfig).
    pub(crate) buf: Vec<AbsByte>,
    /// Flat-store capability-slot metadata: one packed entry per
    /// capability-aligned slot whose footprint lies inside the reserved
    /// footprint (slot `k` is at address `first_slot + k * cap_bytes`);
    /// its words, too, materialise on the first tagged or ghost-marked slot.
    pub(crate) slots: CapSlotBits,
    /// Address of slot 0 of `slots`: the first capability-aligned address at
    /// or above `base`.
    pub(crate) first_slot: u64,
}

impl Allocation {
    /// One-past-the-end address of the *requested* footprint.
    #[must_use]
    pub fn end(&self) -> u64 {
        self.base.wrapping_add(self.size)
    }

    /// Does the allocation footprint contain `[addr, addr+size)`?
    #[must_use]
    pub fn contains_range(&self, addr: u64, size: u64) -> bool {
        addr >= self.base && addr as u128 + size as u128 <= self.base as u128 + self.size as u128
    }

    /// Is `addr` within the footprint or one past it (the region in which
    /// ISO pointer arithmetic may roam, 6.5.6p8)?
    #[must_use]
    pub fn contains_or_one_past(&self, addr: u64) -> bool {
        addr >= self.base && addr as u128 <= self.base as u128 + self.size as u128
    }

    /// Is the allocation writable?
    #[must_use]
    pub fn writable(&self) -> bool {
        !self.readonly && !self.kind.inherently_readonly()
    }

    /// One-past-the-end address of the *reserved* footprint (requested size
    /// plus representability padding).
    #[must_use]
    pub fn reserved_end(&self) -> u64 {
        self.base.wrapping_add(self.reserved_size)
    }

    /// Flat store: number of bytes of the reserved footprint materialised
    /// so far (the length of the written prefix).
    #[must_use]
    pub fn materialised_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Flat store: copy the bytes at offsets `off..off + out.len()` into
    /// `out`; bytes past the written prefix read as [`AbsByte::UNINIT`].
    pub(crate) fn read_into(&self, off: usize, out: &mut [AbsByte]) {
        let end = off + out.len();
        if end <= self.buf.len() {
            out.copy_from_slice(&self.buf[off..end]);
            return;
        }
        let have = self.buf.len().saturating_sub(off);
        if have > 0 {
            out[..have].copy_from_slice(&self.buf[off..]);
        }
        out[have..].fill(AbsByte::UNINIT);
    }

    /// Flat store: the bytes at offsets `off..off + len` for writing,
    /// materialising the prefix up to `off + len` first. The buffer grows
    /// amortised (at least doubling) but never past the reserved footprint,
    /// so an object of up to [`MATERIALISE_MIN`] bytes takes one heap
    /// allocation on its first write.
    pub(crate) fn bytes_mut(&mut self, off: usize, len: usize) -> &mut [AbsByte] {
        let end = off + len;
        if end > self.buf.len() {
            if end > self.buf.capacity() {
                let target = end
                    .max(2 * self.buf.capacity())
                    .max(MATERIALISE_MIN)
                    .min(self.reserved_size as usize);
                self.buf.reserve_exact(target - self.buf.len());
            }
            self.buf.resize(end, AbsByte::UNINIT);
        }
        &mut self.buf[off..end]
    }

    /// Flat store: slot index of the capability-aligned address `addr`, if
    /// the `cap_bytes`-sized footprint at `addr` lies inside the reserved
    /// footprint.
    pub(crate) fn slot_index(&self, addr: u64, cap_bytes: u64) -> Option<usize> {
        if addr < self.first_slot || !addr.is_multiple_of(cap_bytes) {
            return None;
        }
        let k = ((addr - self.first_slot) / cap_bytes) as usize;
        (k < self.slots.len()).then_some(k)
    }

    /// Flat store: number of capability-aligned slots fully contained in
    /// `[first_slot, base + reserved)`, given `first_slot` is the first
    /// aligned address `>= base`.
    pub(crate) fn slot_count(base: u64, reserved: u64, first_slot: u64, cap_bytes: u64) -> usize {
        let end = base.wrapping_add(reserved);
        if end < first_slot.wrapping_add(cap_bytes) {
            0
        } else {
            ((end - first_slot) / cap_bytes) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc(base: u64, size: u64) -> Allocation {
        Allocation {
            id: AllocId(1),
            base,
            size,
            reserved_size: size,
            align: 4,
            kind: AllocKind::Auto,
            alive: true,
            exposed: false,
            readonly: false,
            prefix: "x".into(),
            buf: Vec::new(),
            slots: CapSlotBits::default(),
            first_slot: base,
        }
    }

    #[test]
    fn contains_range_edges() {
        let a = alloc(0x1000, 8);
        assert!(a.contains_range(0x1000, 8));
        assert!(a.contains_range(0x1004, 4));
        assert!(!a.contains_range(0x1004, 5));
        assert!(!a.contains_range(0xFFF, 1));
        assert!(a.contains_range(0x1008, 0)); // empty range at one-past
    }

    #[test]
    fn one_past_is_in_arith_range() {
        let a = alloc(0x1000, 8);
        assert!(a.contains_or_one_past(0x1008));
        assert!(!a.contains_or_one_past(0x1009));
        assert!(!a.contains_or_one_past(0xFFF));
    }

    #[test]
    fn function_allocations_readonly() {
        let mut a = alloc(0x4000, 1);
        a.kind = AllocKind::Function;
        assert!(!a.writable());
    }

    #[test]
    fn flat_store_slot_indexing() {
        // base 0x1004, reserved 0x40: first 16-aligned slot is 0x1010 and
        // only slots whose full footprint fits in [0x1004, 0x1044) count.
        assert_eq!(Allocation::slot_count(0x1004, 0x40, 0x1010, 16), 3);
        let mut a = alloc(0x1004, 0x40);
        a.first_slot = 0x1010;
        a.slots = CapSlotBits::new(3);
        assert_eq!(a.slot_index(0x1010, 16), Some(0));
        assert_eq!(a.slot_index(0x1030, 16), Some(2));
        assert_eq!(a.slot_index(0x1040, 16), None, "footprint crosses the end");
        assert_eq!(a.slot_index(0x1008, 16), None, "misaligned");
        assert_eq!(a.slot_index(0x1000, 16), None, "below base");
        // Allocation entirely below the next alignment boundary: no slots.
        assert_eq!(Allocation::slot_count(0x1004, 8, 0x1010, 16), 0);
    }
}
