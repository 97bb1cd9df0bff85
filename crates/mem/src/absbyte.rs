//! Abstract memory bytes.
//!
//! §4.3: `AbsByte ≜ π × (option byte) × (option ℕ)` — each byte of the
//! memory content carries a provenance, an optional 8-bit value (absent for
//! uninitialised memory), and an optional *copy index* recording which byte
//! of a pointer representation it is, so that a bytewise `memcpy` of a
//! pointer can reassemble its provenance.
//!
//! # Packed representation
//!
//! The naive `(Provenance, Option<u8>, Option<u8>)` struct is 24 bytes —
//! 16 of them the provenance enum — and the flat store keeps one `AbsByte`
//! per written byte of every allocation (the prefix of its reserved
//! footprint written so far), so the footprint (and cache traffic of
//! `memcpy`/scalar loads) is dominated by it. The triple packs into a
//! single `u64` instead:
//!
//! ```text
//! bit  63..20   provenance id (44 bits; allocation/iota counters are
//!               sequential, so 2^44 ids is unreachable in practice)
//! bit  19..18   provenance kind: 0 = Empty, 1 = Alloc, 2 = Iota
//! bit  17       copy_index is Some
//! bit  16       value is Some
//! bit  15..8    copy_index payload (0 when absent)
//! bit   7..0    value payload (0 when absent)
//! ```
//!
//! Absent options keep a zero payload, so the packed form is canonical:
//! bit-equality coincides with logical equality of the triple and the
//! derived `PartialEq`/`Eq` stay correct. The all-zero word is exactly
//! [`AbsByte::UNINIT`], which lets the fill of the gap below a write past
//! the written prefix (`buf.resize(n, AbsByte::UNINIT)`) lower to
//! `memset`. Bytes past the prefix are never stored: a read there yields
//! `UNINIT` without touching memory, so neither allocating nor an
//! abstract-machine `free` fills anything.

use crate::{AllocId, IotaId, Provenance};

/// One byte of abstract memory (packed; see the module docs for the layout).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct AbsByte {
    bits: u64,
}

const VALUE_SHIFT: u32 = 0;
const INDEX_SHIFT: u32 = 8;
const HAS_VALUE: u64 = 1 << 16;
const HAS_INDEX: u64 = 1 << 17;
const KIND_SHIFT: u32 = 18;
const KIND_MASK: u64 = 0b11 << KIND_SHIFT;
const KIND_ALLOC: u64 = 0b01 << KIND_SHIFT;
const KIND_IOTA: u64 = 0b10 << KIND_SHIFT;
const ID_SHIFT: u32 = 20;
const ID_BITS: u32 = 64 - ID_SHIFT;

const _: () = assert!(std::mem::size_of::<AbsByte>() == 8);

fn pack_prov(prov: Provenance) -> u64 {
    let (kind, id) = match prov {
        Provenance::Empty => return 0,
        Provenance::Alloc(AllocId(id)) => (KIND_ALLOC, id),
        Provenance::Iota(IotaId(id)) => (KIND_IOTA, id),
    };
    assert!(
        id < 1 << ID_BITS,
        "provenance id {id} exceeds the {ID_BITS}-bit packed field"
    );
    kind | (id << ID_SHIFT)
}

impl AbsByte {
    /// An uninitialised byte with empty provenance.
    pub const UNINIT: AbsByte = AbsByte { bits: 0 };

    /// A plain data byte with no provenance.
    #[must_use]
    pub fn data(value: u8) -> Self {
        AbsByte {
            bits: HAS_VALUE | u64::from(value) << VALUE_SHIFT,
        }
    }

    /// A byte of a pointer representation.
    #[must_use]
    pub fn pointer(prov: Provenance, value: u8, index: u8) -> Self {
        AbsByte {
            bits: pack_prov(prov)
                | HAS_VALUE
                | HAS_INDEX
                | u64::from(value) << VALUE_SHIFT
                | u64::from(index) << INDEX_SHIFT,
        }
    }

    /// Assemble a byte from the unpacked §4.3 triple.
    #[must_use]
    pub fn from_parts(prov: Provenance, value: Option<u8>, copy_index: Option<u8>) -> Self {
        let mut bits = pack_prov(prov);
        if let Some(v) = value {
            bits |= HAS_VALUE | u64::from(v) << VALUE_SHIFT;
        }
        if let Some(i) = copy_index {
            bits |= HAS_INDEX | u64::from(i) << INDEX_SHIFT;
        }
        AbsByte { bits }
    }

    /// The unpacked §4.3 triple `(π, option byte, option ℕ)`.
    #[must_use]
    pub fn parts(self) -> (Provenance, Option<u8>, Option<u8>) {
        (self.prov(), self.value(), self.copy_index())
    }

    /// Provenance carried by this byte (π).
    #[must_use]
    pub fn prov(self) -> Provenance {
        let id = self.bits >> ID_SHIFT;
        match self.bits & KIND_MASK {
            KIND_ALLOC => Provenance::Alloc(AllocId(id)),
            KIND_IOTA => Provenance::Iota(IotaId(id)),
            _ => Provenance::Empty,
        }
    }

    /// The byte value; `None` for uninitialised memory.
    #[must_use]
    pub fn value(self) -> Option<u8> {
        if self.bits & HAS_VALUE != 0 {
            Some((self.bits >> VALUE_SHIFT) as u8)
        } else {
            None
        }
    }

    /// For bytes of a pointer representation: the index of this byte within
    /// the pointer (0-based), enabling provenance recovery on reassembly.
    #[must_use]
    pub fn copy_index(self) -> Option<u8> {
        if self.bits & HAS_INDEX != 0 {
            Some((self.bits >> INDEX_SHIFT) as u8)
        } else {
            None
        }
    }

    /// Is this byte initialised?
    #[must_use]
    pub fn is_init(&self) -> bool {
        self.bits & HAS_VALUE != 0
    }

    /// The concrete value a *hardware* read observes: real memory has no
    /// "uninitialised" state, so abstract-machine-uninitialised bytes read
    /// back as the deterministic stale value 0 (our emulated RAM is
    /// zero-filled and never reused). Used by the hardware-emulation
    /// profiles (`memcmp`, the revocation sweep's capability decode).
    #[must_use]
    pub fn concrete(&self) -> u8 {
        // Absent values keep a zero payload, so no branch is needed.
        (self.bits >> VALUE_SHIFT) as u8
    }
}

impl std::fmt::Debug for AbsByte {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbsByte")
            .field("prov", &self.prov())
            .field("value", &self.value())
            .field("copy_index", &self.copy_index())
            .finish()
    }
}

/// Recover the provenance of a pointer reassembled from `bytes`, PNVI-style:
/// all bytes must carry the same non-empty provenance and consecutive copy
/// indices starting at 0, otherwise the result is [`Provenance::Empty`].
#[must_use]
pub fn recover_provenance(bytes: &[AbsByte]) -> Provenance {
    let first = match bytes.first() {
        Some(b) => b,
        None => return Provenance::Empty,
    };
    let prov = first.prov();
    if prov.is_empty() {
        return Provenance::Empty;
    }
    for (i, b) in bytes.iter().enumerate() {
        if b.prov() != prov || b.copy_index() != Some(i as u8) {
            return Provenance::Empty;
        }
    }
    prov
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AllocId;

    fn ptr_bytes(id: u64, n: u8) -> Vec<AbsByte> {
        (0..n)
            .map(|i| AbsByte::pointer(Provenance::Alloc(AllocId(id)), i, i))
            .collect()
    }

    #[test]
    fn uninit_byte() {
        assert!(!AbsByte::UNINIT.is_init());
        assert!(AbsByte::data(0).is_init());
    }

    #[test]
    fn packed_is_8_bytes_and_default_is_uninit() {
        assert_eq!(std::mem::size_of::<AbsByte>(), 8);
        assert_eq!(AbsByte::default(), AbsByte::UNINIT);
        assert_eq!(AbsByte::UNINIT.parts(), (Provenance::Empty, None, None));
    }

    #[test]
    fn data_byte_roundtrip() {
        for v in [0u8, 1, 0x7f, 0xff] {
            let b = AbsByte::data(v);
            assert_eq!(b.parts(), (Provenance::Empty, Some(v), None));
            assert_eq!(b.concrete(), v);
        }
        // A zero data byte is initialised — distinct from UNINIT even
        // though both read back 0 concretely.
        assert_ne!(AbsByte::data(0), AbsByte::UNINIT);
        assert_eq!(AbsByte::data(0).concrete(), AbsByte::UNINIT.concrete());
    }

    #[test]
    fn pointer_byte_roundtrip() {
        let prov = Provenance::Alloc(AllocId(86));
        let b = AbsByte::pointer(prov, 0xAB, 15);
        assert_eq!(b.prov(), prov);
        assert_eq!(b.value(), Some(0xAB));
        assert_eq!(b.copy_index(), Some(15));
        let iota = AbsByte::pointer(Provenance::Iota(crate::IotaId(3)), 0, 0);
        assert_eq!(iota.prov(), Provenance::Iota(crate::IotaId(3)));
    }

    #[test]
    fn copy_index_edge_at_15() {
        // Byte 15 is the last byte of a 16-byte Morello capability: the
        // highest copy index the store ever writes, and off-by-one packing
        // of the index field would corrupt exactly this byte.
        let bytes = ptr_bytes(7, 16);
        assert_eq!(bytes[15].copy_index(), Some(15));
        assert_eq!(bytes[15].value(), Some(15));
        assert_eq!(recover_provenance(&bytes), Provenance::Alloc(AllocId(7)));
        // ... and an index of 15 must not be confused with absence or 0.
        assert_ne!(bytes[15], AbsByte::pointer(Provenance::Alloc(AllocId(7)), 15, 0));
        assert_ne!(
            bytes[15],
            AbsByte::from_parts(Provenance::Alloc(AllocId(7)), Some(15), None)
        );
    }

    #[test]
    fn parts_roundtrip_is_lossless() {
        let provs = [
            Provenance::Empty,
            Provenance::Alloc(AllocId(0)),
            Provenance::Alloc(AllocId((1 << 44) - 1)),
            Provenance::Iota(crate::IotaId(12345)),
        ];
        for prov in provs {
            for value in [None, Some(0u8), Some(0xFF)] {
                for idx in [None, Some(0u8), Some(15), Some(0xFF)] {
                    let b = AbsByte::from_parts(prov, value, idx);
                    assert_eq!(b.parts(), (prov, value, idx));
                }
            }
        }
    }

    #[test]
    fn recover_intact_pointer() {
        let bytes = ptr_bytes(7, 16);
        assert_eq!(recover_provenance(&bytes), Provenance::Alloc(AllocId(7)));
    }

    #[test]
    fn recover_fails_on_shuffled_bytes() {
        let mut bytes = ptr_bytes(7, 16);
        bytes.swap(0, 1);
        assert_eq!(recover_provenance(&bytes), Provenance::Empty);
    }

    #[test]
    fn recover_fails_on_mixed_provenance() {
        let mut bytes = ptr_bytes(7, 16);
        bytes[5] = AbsByte::from_parts(
            Provenance::Alloc(AllocId(8)),
            bytes[5].value(),
            bytes[5].copy_index(),
        );
        assert_eq!(recover_provenance(&bytes), Provenance::Empty);
    }

    #[test]
    fn recover_fails_on_overwritten_byte() {
        let mut bytes = ptr_bytes(7, 16);
        bytes[0] = AbsByte::data(0x41);
        assert_eq!(recover_provenance(&bytes), Provenance::Empty);
    }

    #[test]
    fn recover_provenance_through_memcpy_reassembly() {
        // A bytewise copy that preserves order keeps the provenance; the
        // same bytes shifted by one (a misaligned reassembly) lose it.
        let src = ptr_bytes(42, 16);
        let mut dst = vec![AbsByte::UNINIT; 16];
        dst.copy_from_slice(&src);
        assert_eq!(recover_provenance(&dst), Provenance::Alloc(AllocId(42)));
        let shifted: Vec<AbsByte> = src[1..].iter().copied().chain([src[0]]).collect();
        assert_eq!(recover_provenance(&shifted), Provenance::Empty);
    }
}
