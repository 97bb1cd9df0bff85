//! Pointer and integer values of the memory object model.
//!
//! §4.3: "Pointer values are capabilities ... Integer values could be either
//! pure numeric values for integer types, or capabilities (with signedness
//! flag) for `(u)intptr_t` types. This representation allows us to preserve
//! all capability fields when casting pointers to `(u)intptr_t` and back"
//! (`integer_value ≜ ℤ ⊕ (𝔹 × Cap)`).

use std::fmt;

use cheri_cap::{CapDisplay, Capability};

use crate::Provenance;

/// A pointer value: provenance plus a capability (the `(@i, c)` pairs of the
/// load rule in §4.3).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PtrVal<C> {
    /// PNVI-ae-udi provenance.
    pub prov: Provenance,
    /// The capability. In the baseline (non-CHERI) model this is a
    /// root-derived capability used only for its address field.
    pub cap: C,
}

impl<C: Capability> PtrVal<C> {
    /// The null pointer.
    #[must_use]
    pub fn null() -> Self {
        PtrVal {
            prov: Provenance::Empty,
            cap: C::null(),
        }
    }

    /// Construct from provenance and capability.
    #[must_use]
    pub fn new(prov: Provenance, cap: C) -> Self {
        PtrVal { prov, cap }
    }

    /// The virtual address.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.cap.address()
    }

    /// Is this a null pointer (address 0, null-derived capability)?
    #[must_use]
    pub fn is_null(&self) -> bool {
        self.addr() == 0 && self.cap.is_null_derived()
    }
}

impl<C: Capability> fmt::Display for PtrVal<C> {
    /// Appendix A style: `(@86, 0xffffe6dc [rwRW,0xffffe6dc-0xffffe6e4])`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.prov, CapDisplay(&self.cap))
    }
}

/// An integer value: `ℤ ⊕ (𝔹 × Cap)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IntVal<C> {
    /// A pure numeric value (arbitrary precision within `i128`).
    Num(i128),
    /// A capability-carrying value of `(u)intptr_t` type. It keeps the
    /// provenance of the pointer it was cast from so that type punning
    /// through unions (§3.4) and load/modify/store of `(u)intptr_t` objects
    /// behave like the executable Cerberus-CHERI semantics.
    Cap {
        /// True for `intptr_t`, false for `uintptr_t`.
        signed: bool,
        /// The capability; its address field is the numeric value.
        cap: C,
        /// Provenance carried along with the capability.
        prov: Provenance,
    },
}

impl<C: Capability> IntVal<C> {
    /// The numeric (address) value, interpreting the address according to
    /// the signedness for capability-carrying values.
    #[must_use]
    pub fn value(&self) -> i128 {
        match self {
            IntVal::Num(n) => *n,
            IntVal::Cap { signed, cap, .. } => {
                let a = cap.address();
                if *signed && C::ADDR_BITS == 64 {
                    i128::from(a as i64)
                } else if *signed {
                    i128::from(a as u32 as i32)
                } else {
                    i128::from(a)
                }
            }
        }
    }

    /// The capability, if this value carries one.
    #[must_use]
    pub fn as_cap(&self) -> Option<&C> {
        match self {
            IntVal::Num(_) => None,
            IntVal::Cap { cap, .. } => Some(cap),
        }
    }

    /// The provenance carried by this value ([`Provenance::Empty`] for pure
    /// numerics).
    #[must_use]
    pub fn prov(&self) -> Provenance {
        match self {
            IntVal::Num(_) => Provenance::Empty,
            IntVal::Cap { prov, .. } => *prov,
        }
    }

    /// Is this a capability-carrying value?
    #[must_use]
    pub fn is_cap(&self) -> bool {
        matches!(self, IntVal::Cap { .. })
    }

    /// Derive a capability-carrying value with a new address from this
    /// value's capability (or from the null capability for numerics). The
    /// tag is cleared by the capability model if `addr` is not
    /// representable; the caller decides whether to also set ghost state
    /// (§3.3 option (c) sets it only for abstract-machine excursions).
    #[must_use]
    pub fn derive_with_address(&self, signed: bool, addr: u64) -> IntVal<C> {
        let (base, prov) = match self {
            IntVal::Num(_) => (C::null(), Provenance::Empty),
            IntVal::Cap { cap, prov, .. } => (*cap, *prov),
        };
        IntVal::Cap {
            signed,
            cap: base.with_address(addr),
            prov,
        }
    }
}

impl<C: Capability> fmt::Display for IntVal<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntVal::Num(n) => write!(f, "{n}"),
            IntVal::Cap { cap, .. } => write!(f, "{}", CapDisplay(cap)),
        }
    }
}

/// A scalar memory value, as loaded from or stored to memory.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum MemVal<C> {
    /// An unspecified value (e.g. loaded from uninitialised memory when the
    /// model is configured to tolerate it).
    Unspec,
    /// An integer value with its byte size.
    Int {
        /// Width in bytes of the representation.
        size: usize,
        /// The value.
        v: IntVal<C>,
    },
    /// A pointer value.
    Ptr(PtrVal<C>),
}

impl<C: Capability> fmt::Display for MemVal<C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemVal::Unspec => write!(f, "<unspecified>"),
            MemVal::Int { v, .. } => write!(f, "{v}"),
            MemVal::Ptr(p) => write!(f, "{p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cheri_cap::MorelloCap;

    #[test]
    fn null_pointer_properties() {
        let p: PtrVal<MorelloCap> = PtrVal::null();
        assert!(p.is_null());
        assert_eq!(p.addr(), 0);
        assert!(p.prov.is_empty());
    }

    #[test]
    fn intval_signed_interpretation() {
        let cap = MorelloCap::null().with_address(u64::MAX);
        let signed = IntVal::Cap { signed: true, cap, prov: Provenance::Empty };
        let unsigned = IntVal::Cap { signed: false, cap, prov: Provenance::Empty };
        assert_eq!(signed.value(), -1);
        assert_eq!(unsigned.value(), i128::from(u64::MAX));
    }

    #[test]
    fn derive_from_num_is_null_derived() {
        let v: IntVal<MorelloCap> = IntVal::Num(0x1234);
        let d = v.derive_with_address(false, 0x1234);
        let cap = d.as_cap().unwrap();
        assert!(!cap.tag());
        assert!(cap.is_null_derived());
        assert_eq!(d.value(), 0x1234);
    }

    #[test]
    fn derive_from_cap_keeps_bounds() {
        let cap = MorelloCap::root().with_bounds(0x1000, 64);
        let v = IntVal::Cap { signed: false, cap, prov: Provenance::Empty };
        let d = v.derive_with_address(true, 0x1010);
        let c = d.as_cap().unwrap();
        assert!(c.tag());
        assert_eq!(c.bounds().base, 0x1000);
        assert_eq!(d.value(), 0x1010);
    }

    #[test]
    fn display_matches_appendix_a() {
        use crate::AllocId;
        let cap = MorelloCap::root()
            .with_perms_and(cheri_cap::Perms::data())
            .with_bounds(0xffffe6dc, 8);
        let p = PtrVal::new(Provenance::Alloc(AllocId(86)), cap);
        assert_eq!(
            p.to_string(),
            "(@86, 0xffffe6dc [rwRW,0xffffe6dc-0xffffe6e4])"
        );
    }
}
