//! The C type system fragment of CHERI C.
//!
//! Sizes and alignments follow the CHERI 64-bit data model: pointers and
//! `(u)intptr_t` occupy one capability (16 bytes on Morello), while their
//! *value range* is the 64-bit address space. §3.7 of the paper requires
//! that "no other standard integer type shall have a higher integer
//! conversion rank than `intptr_t` and `uintptr_t`" — the rank table below
//! implements exactly that rule.

use std::fmt;

use cheri_mem::Ub;

use crate::ast::BinOp;

/// Integer types of the model, including the CHERI C additions
/// (`(u)intptr_t` as capability-carrying types, `ptraddr_t` as the abstract
/// address type of §3.10).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum IntTy {
    /// `_Bool`.
    Bool,
    /// Plain `char` (signed in this implementation, like AArch64... actually
    /// Morello `char` is unsigned on Arm, but CheriBSD uses signed plain
    /// char on RISC-V; we pick signed and the test suite treats plain-char
    /// signedness as implementation-defined).
    Char,
    /// `signed char`.
    SChar,
    /// `unsigned char`.
    UChar,
    /// `short`.
    Short,
    /// `unsigned short`.
    UShort,
    /// `int`.
    Int,
    /// `unsigned int`.
    UInt,
    /// `long` (64-bit).
    Long,
    /// `unsigned long` (64-bit); also `size_t`.
    ULong,
    /// `long long` (64-bit).
    LongLong,
    /// `unsigned long long` (64-bit).
    ULongLong,
    /// `intptr_t`: capability-carrying (§3.3).
    IntPtr,
    /// `uintptr_t`: capability-carrying (§3.3).
    UIntPtr,
    /// `ptraddr_t`: the plain integer address type (§3.10); unsigned 64-bit.
    PtrAddr,
}

impl IntTy {
    /// Is the type signed?
    #[must_use]
    pub fn signed(self) -> bool {
        matches!(
            self,
            IntTy::Char
                | IntTy::SChar
                | IntTy::Short
                | IntTy::Int
                | IntTy::Long
                | IntTy::LongLong
                | IntTy::IntPtr
        )
    }

    /// Is this a capability-carrying type (`intptr_t`/`uintptr_t`)?
    #[must_use]
    pub fn is_capability(self) -> bool {
        matches!(self, IntTy::IntPtr | IntTy::UIntPtr)
    }

    /// Width in bits of the *value range* (for arithmetic). `(u)intptr_t`
    /// arithmetic operates on the 64-bit address despite the 16-byte
    /// representation.
    #[must_use]
    pub fn value_bits(self) -> u32 {
        match self {
            IntTy::Bool => 1,
            IntTy::Char | IntTy::SChar | IntTy::UChar => 8,
            IntTy::Short | IntTy::UShort => 16,
            IntTy::Int | IntTy::UInt => 32,
            _ => 64,
        }
    }

    /// Integer conversion rank. §3.7: `(u)intptr_t` outrank every standard
    /// integer type.
    #[must_use]
    pub fn rank(self) -> u32 {
        match self {
            IntTy::Bool => 0,
            IntTy::Char | IntTy::SChar | IntTy::UChar => 1,
            IntTy::Short | IntTy::UShort => 2,
            IntTy::Int | IntTy::UInt => 3,
            IntTy::Long | IntTy::ULong | IntTy::PtrAddr => 4,
            IntTy::LongLong | IntTy::ULongLong => 5,
            IntTy::IntPtr | IntTy::UIntPtr => 6,
        }
    }

    /// The unsigned counterpart of this type (self if already unsigned).
    #[must_use]
    pub fn to_unsigned(self) -> IntTy {
        match self {
            IntTy::Char | IntTy::SChar => IntTy::UChar,
            IntTy::Short => IntTy::UShort,
            IntTy::Int => IntTy::UInt,
            IntTy::Long => IntTy::ULong,
            IntTy::LongLong => IntTy::ULongLong,
            IntTy::IntPtr => IntTy::UIntPtr,
            other => other,
        }
    }

    /// Smallest representable value.
    #[must_use]
    pub fn min(self) -> i128 {
        if self.signed() {
            -(1i128 << (self.value_bits() - 1))
        } else {
            0
        }
    }

    /// Largest representable value.
    #[must_use]
    pub fn max(self) -> i128 {
        if self == IntTy::Bool {
            1
        } else if self.signed() {
            (1i128 << (self.value_bits() - 1)) - 1
        } else {
            (1i128 << self.value_bits()) - 1
        }
    }

    /// Wrap `v` into this type's range, modular for unsigned types and
    /// two's-complement for signed ones (used for casts; plain signed
    /// arithmetic overflow is UB, handled separately).
    #[must_use]
    pub fn wrap(self, v: i128) -> i128 {
        // Truncating `as` casts are exactly two's-complement wrapping at the
        // type's `value_bits`, in one instruction instead of i128 shifts.
        match self {
            IntTy::Bool => i128::from(v != 0),
            IntTy::Char | IntTy::SChar => i128::from(v as i8),
            IntTy::UChar => i128::from(v as u8),
            IntTy::Short => i128::from(v as i16),
            IntTy::UShort => i128::from(v as u16),
            IntTy::Int => i128::from(v as i32),
            IntTy::UInt => i128::from(v as u32),
            IntTy::Long | IntTy::LongLong | IntTy::IntPtr => i128::from(v as i64),
            IntTy::ULong | IntTy::ULongLong | IntTy::UIntPtr | IntTy::PtrAddr => {
                i128::from(v as u64)
            }
        }
    }

    /// Does `v` fit this type without wrapping?
    #[must_use]
    pub fn fits(self, v: i128) -> bool {
        v >= self.min() && v <= self.max()
    }
}

/// Integer binary operator `op` on operands `a` and `b` of type `ity`: the
/// one definition of C integer arithmetic, shared by both engines
/// (`Interp::binary_int`), the peephole's constant folder and lint.
///
/// Comparisons (§3.6: address-only for capability-carrying operands) and
/// the logical operators yield 0 or 1. Arithmetic yields the result wrapped
/// into `ity`; a `(u)intptr_t` caller sets that address on the derivation
/// source's capability. The errors are the UBs of ISO C 6.5.5–6.5.7:
/// division or remainder by zero, `MIN / -1`, out-of-range shift counts,
/// and signed overflow of `+`, `-`, `*` and `<<` (unsigned and
/// capability-carrying `+`, `-`, `*` wrap).
///
/// # Errors
///
/// [`Ub::DivisionByZero`], [`Ub::ShiftOutOfRange`] or
/// [`Ub::SignedOverflow`]; [`int_binary_ub_detail`] words the report.
pub fn int_binary(op: BinOp, ity: IntTy, a: i128, b: i128) -> Result<i128, Ub> {
    let overflow_is_ub = ity.signed() && !ity.is_capability();
    let raw = match op {
        BinOp::Eq => return Ok(i128::from(a == b)),
        BinOp::Ne => return Ok(i128::from(a != b)),
        BinOp::Lt => return Ok(i128::from(a < b)),
        BinOp::Le => return Ok(i128::from(a <= b)),
        BinOp::Gt => return Ok(i128::from(a > b)),
        BinOp::Ge => return Ok(i128::from(a >= b)),
        BinOp::LogAnd => return Ok(i128::from(a != 0 && b != 0)),
        BinOp::LogOr => return Ok(i128::from(a != 0 || b != 0)),
        BinOp::Add => a + b,
        BinOp::Sub => a - b,
        BinOp::Mul => match (i64::try_from(a), i64::try_from(b)) {
            // Every operand but an unsigned one of 2^63 or more fits i64,
            // and then one widening multiply gives the exact product.
            (Ok(x), Ok(y)) => i128::from(x) * i128::from(y),
            _ => match a.checked_mul(b) {
                Some(v) => v,
                None if overflow_is_ub => return Err(Ub::SignedOverflow),
                None => a.wrapping_mul(b),
            },
        },
        BinOp::Div | BinOp::Rem => {
            if b == 0 {
                return Err(Ub::DivisionByZero);
            }
            if ity.signed() && a == ity.min() && b == -1 {
                return Err(Ub::SignedOverflow);
            }
            if op == BinOp::Div {
                a / b
            } else {
                a % b
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl | BinOp::Shr => {
            let bits = ity.value_bits();
            if b < 0 || b >= i128::from(bits) {
                return Err(Ub::ShiftOutOfRange);
            }
            if op == BinOp::Shl {
                let v = a << b;
                if ity.signed() && !ity.fits(v) {
                    return Err(Ub::SignedOverflow);
                }
                v
            } else if ity.signed() {
                a >> b
            } else {
                ((a as u128 & (u128::MAX >> (128 - bits))) >> b) as i128
            }
        }
    };
    if overflow_is_ub && matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul) && !ity.fits(raw) {
        return Err(Ub::SignedOverflow);
    }
    Ok(ity.wrap(raw))
}

/// The report text for a UB that [`int_binary`] returned for `op` with
/// right operand `b`.
#[must_use]
pub fn int_binary_ub_detail(op: BinOp, ub: Ub, b: i128) -> String {
    match (ub, op) {
        (Ub::ShiftOutOfRange, _) => return format!("shift by {b}"),
        (Ub::DivisionByZero, BinOp::Div) => "division by zero",
        (Ub::DivisionByZero, _) => "remainder by zero",
        (_, BinOp::Div) => "INT_MIN / -1",
        (_, BinOp::Rem) => "INT_MIN % -1",
        (_, BinOp::Shl) => "left shift overflow",
        (_, BinOp::Mul) => "multiplication overflow",
        _ => "arithmetic overflow",
    }
    .into()
}

impl fmt::Display for IntTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IntTy::Bool => "_Bool",
            IntTy::Char => "char",
            IntTy::SChar => "signed char",
            IntTy::UChar => "unsigned char",
            IntTy::Short => "short",
            IntTy::UShort => "unsigned short",
            IntTy::Int => "int",
            IntTy::UInt => "unsigned int",
            IntTy::Long => "long",
            IntTy::ULong => "unsigned long",
            IntTy::LongLong => "long long",
            IntTy::ULongLong => "unsigned long long",
            IntTy::IntPtr => "intptr_t",
            IntTy::UIntPtr => "uintptr_t",
            IntTy::PtrAddr => "ptraddr_t",
        };
        f.write_str(s)
    }
}

/// Floating-point types.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FloatTy {
    /// `float` (IEEE binary32).
    F32,
    /// `double` (IEEE binary64).
    F64,
}

impl FloatTy {
    /// Size in bytes.
    #[must_use]
    pub fn size(self) -> u64 {
        match self {
            FloatTy::F32 => 4,
            FloatTy::F64 => 8,
        }
    }
}

impl fmt::Display for FloatTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FloatTy::F32 => "float",
            FloatTy::F64 => "double",
        })
    }
}

/// Identifier of a struct or union layout in the [`TypeTable`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StructId(pub usize);

/// A C type.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Ty {
    /// `void`.
    Void,
    /// An integer type.
    Int(IntTy),
    /// A floating-point type (the Cerberus memory interface covers
    /// "integer, floating point, and pointer memory values", §4.3).
    Float(FloatTy),
    /// A pointer; `const_pointee` records a `const`-qualified pointee
    /// (affects the write permission of derived capabilities, §3.9).
    Ptr {
        /// The pointed-to type.
        pointee: Box<Ty>,
        /// Pointee is `const`-qualified.
        const_pointee: bool,
    },
    /// An array with optionally-known length.
    Array(Box<Ty>, Option<u64>),
    /// A struct type (layout in the [`TypeTable`]).
    Struct(StructId),
    /// A union type (layout in the [`TypeTable`]).
    Union(StructId),
    /// A function type.
    Func {
        /// Return type.
        ret: Box<Ty>,
        /// Parameter types.
        params: Vec<Ty>,
        /// Accepts extra (variadic) arguments.
        variadic: bool,
    },
}

impl Ty {
    /// Shorthand for `int`.
    #[must_use]
    pub fn int() -> Ty {
        Ty::Int(IntTy::Int)
    }

    /// Shorthand for a non-const pointer to `t`.
    #[must_use]
    pub fn ptr(t: Ty) -> Ty {
        Ty::Ptr {
            pointee: Box::new(t),
            const_pointee: false,
        }
    }

    /// Is this an integer type?
    #[must_use]
    pub fn as_int(&self) -> Option<IntTy> {
        match self {
            Ty::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Is this a pointer type?
    #[must_use]
    pub fn is_ptr(&self) -> bool {
        matches!(self, Ty::Ptr { .. })
    }

    /// Is this a scalar (integer, float or pointer) type?
    #[must_use]
    pub fn is_scalar(&self) -> bool {
        matches!(self, Ty::Int(_) | Ty::Float(_) | Ty::Ptr { .. })
    }

    /// The floating-point type, if any.
    #[must_use]
    pub fn as_float(&self) -> Option<FloatTy> {
        match self {
            Ty::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Does a value of this type carry a capability (pointer or
    /// `(u)intptr_t`)?
    #[must_use]
    pub fn is_capability_carrying(&self) -> bool {
        match self {
            Ty::Ptr { .. } => true,
            Ty::Int(i) => i.is_capability(),
            _ => false,
        }
    }

    /// The pointee type, for pointers and arrays.
    #[must_use]
    pub fn pointee(&self) -> Option<&Ty> {
        match self {
            Ty::Ptr { pointee, .. } => Some(pointee),
            Ty::Array(t, _) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Void => write!(f, "void"),
            Ty::Int(i) => write!(f, "{i}"),
            Ty::Float(t) => write!(f, "{t}"),
            Ty::Ptr {
                pointee,
                const_pointee,
            } => {
                if *const_pointee {
                    write!(f, "const ")?;
                }
                write!(f, "{pointee}*")
            }
            Ty::Array(t, Some(n)) => write!(f, "{t}[{n}]"),
            Ty::Array(t, None) => write!(f, "{t}[]"),
            Ty::Struct(id) => write!(f, "struct#{}", id.0),
            Ty::Union(id) => write!(f, "union#{}", id.0),
            Ty::Func { ret, params, .. } => {
                write!(f, "{ret}(")?;
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// A field of a struct or union layout.
#[derive(Clone, Debug)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// Byte offset within the aggregate (0 for union members).
    pub offset: u64,
}

/// Layout of a struct or union.
#[derive(Clone, Debug)]
pub struct StructLayout {
    /// Tag name (or a generated name for anonymous aggregates).
    pub name: String,
    /// Is this a union?
    pub is_union: bool,
    /// The fields, with offsets assigned.
    pub fields: Vec<Field>,
    /// Total size in bytes (with tail padding).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

/// The target data layout: how big pointers are in memory. Capability mode
/// gives 16-byte pointers, the baseline gives 8.
#[derive(Clone, Copy, Debug)]
pub struct TargetLayout {
    /// Size and alignment of pointers and `(u)intptr_t` in bytes.
    pub ptr_size: u64,
}

impl Default for TargetLayout {
    fn default() -> Self {
        TargetLayout { ptr_size: 16 }
    }
}

/// Type table: struct/union layouts and size/alignment computation.
#[derive(Clone, Debug, Default)]
pub struct TypeTable {
    /// All struct/union layouts, indexed by [`StructId`].
    pub structs: Vec<StructLayout>,
    /// The target data layout.
    pub layout: TargetLayout,
}

impl TypeTable {
    /// New table for a target layout.
    #[must_use]
    pub fn new(layout: TargetLayout) -> Self {
        TypeTable {
            structs: Vec::new(),
            layout,
        }
    }

    /// Size of a type in bytes.
    ///
    /// # Panics
    ///
    /// Panics on `void`, function types and unsized arrays (the type
    /// checker rejects `sizeof` on those first).
    #[must_use]
    pub fn size_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => panic!("sizeof(void)"),
            Ty::Int(i) => {
                if i.is_capability() {
                    self.layout.ptr_size
                } else {
                    u64::from(i.value_bits().max(8) / 8)
                }
            }
            Ty::Float(t) => t.size(),
            Ty::Ptr { .. } => self.layout.ptr_size,
            Ty::Array(t, Some(n)) => self.size_of(t) * n,
            Ty::Array(_, None) => panic!("sizeof(unsized array)"),
            Ty::Struct(id) | Ty::Union(id) => self.structs[id.0].size,
            Ty::Func { .. } => panic!("sizeof(function)"),
        }
    }

    /// Alignment of a type in bytes.
    #[must_use]
    pub fn align_of(&self, ty: &Ty) -> u64 {
        match ty {
            Ty::Void => 1,
            Ty::Int(i) => {
                if i.is_capability() {
                    self.layout.ptr_size
                } else {
                    u64::from(i.value_bits().max(8) / 8)
                }
            }
            Ty::Float(t) => t.size(),
            Ty::Ptr { .. } => self.layout.ptr_size,
            Ty::Array(t, _) => self.align_of(t),
            Ty::Struct(id) | Ty::Union(id) => self.structs[id.0].align,
            Ty::Func { .. } => 1,
        }
    }

    /// Reserve a struct id before its body is parsed, so self-referential
    /// types (`struct node { struct node *next; }`) can name themselves.
    pub fn reserve_struct(&mut self, name: &str, is_union: bool) -> StructId {
        let id = StructId(self.structs.len());
        self.structs.push(StructLayout {
            name: name.to_string(),
            is_union,
            fields: Vec::new(),
            size: 1,
            align: 1,
        });
        id
    }

    /// Complete a reserved struct with its members, computing offsets.
    pub fn complete_struct(
        &mut self,
        id: StructId,
        is_union: bool,
        members: Vec<(String, Ty)>,
    ) {
        let layout = self.layout_members(is_union, members);
        let name = self.structs[id.0].name.clone();
        self.structs[id.0] = StructLayout { name, ..layout };
    }

    fn layout_members(&self, is_union: bool, members: Vec<(String, Ty)>) -> StructLayout {
        let mut fields = Vec::new();
        let mut offset = 0u64;
        let mut align = 1u64;
        let mut size = 0u64;
        for (fname, fty) in members {
            let fa = self.align_of(&fty);
            let fs = self.size_of(&fty);
            align = align.max(fa);
            let foff = if is_union {
                0
            } else {
                offset = (offset + fa - 1) & !(fa - 1);
                let o = offset;
                offset += fs;
                o
            };
            if is_union {
                size = size.max(fs);
            }
            fields.push(Field {
                name: fname,
                ty: fty,
                offset: foff,
            });
        }
        if !is_union {
            size = offset;
        }
        size = (size + align - 1) & !(align - 1);
        StructLayout {
            name: String::new(),
            is_union,
            fields,
            size: size.max(1),
            align,
        }
    }

    /// Register a struct/union layout in one step, computing offsets.
    pub fn define_struct(
        &mut self,
        name: &str,
        is_union: bool,
        members: Vec<(String, Ty)>,
    ) -> StructId {
        let id = self.reserve_struct(name, is_union);
        self.complete_struct(id, is_union, members);
        id
    }

    /// Find a field by name.
    #[must_use]
    pub fn field(&self, id: StructId, name: &str) -> Option<&Field> {
        self.structs[id.0].fields.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intptr_has_highest_rank() {
        for t in [
            IntTy::Bool,
            IntTy::Char,
            IntTy::Short,
            IntTy::Int,
            IntTy::Long,
            IntTy::ULong,
            IntTy::LongLong,
            IntTy::PtrAddr,
        ] {
            assert!(t.rank() < IntTy::IntPtr.rank(), "{t} must rank below intptr_t");
            assert!(t.rank() < IntTy::UIntPtr.rank());
        }
    }

    /// The shift-and-mask definition `wrap` replaced, kept as its oracle.
    fn wrap_by_shifts(ity: IntTy, v: i128) -> i128 {
        let bits = ity.value_bits();
        if ity == IntTy::Bool {
            return i128::from(v != 0);
        }
        let m = v & ((1i128 << bits) - 1);
        if ity.signed() && (m >> (bits - 1)) & 1 == 1 {
            m - (1i128 << bits)
        } else {
            m
        }
    }

    const ALL_INT_TYS: [IntTy; 15] = [
        IntTy::Bool,
        IntTy::Char,
        IntTy::SChar,
        IntTy::UChar,
        IntTy::Short,
        IntTy::UShort,
        IntTy::Int,
        IntTy::UInt,
        IntTy::Long,
        IntTy::ULong,
        IntTy::LongLong,
        IntTy::ULongLong,
        IntTy::IntPtr,
        IntTy::UIntPtr,
        IntTy::PtrAddr,
    ];

    #[test]
    fn cast_wrap_is_bit_identical_to_shift_wrap() {
        let mut vals = vec![0i128, 1, -1, i128::MAX, i128::MIN];
        for bits in [1u32, 7, 8, 15, 16, 31, 32, 63, 64, 65, 100, 126] {
            let p = 1i128 << bits;
            vals.extend([p - 1, p, p + 1, -p - 1, -p, -p + 1]);
        }
        let mut x: u128 = 0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C834;
        for _ in 0..2000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            vals.push(x as i128);
            vals.push((x as i128) >> (x % 127));
        }
        for ity in ALL_INT_TYS {
            for &v in &vals {
                assert_eq!(ity.wrap(v), wrap_by_shifts(ity, v), "{ity} wrap({v})");
            }
        }
    }

    #[test]
    fn multiplication_overflow_follows_signedness() {
        let m = BinOp::Mul;
        assert_eq!(
            int_binary(m, IntTy::Int, 100_000, 100_000),
            Err(Ub::SignedOverflow)
        );
        assert_eq!(int_binary(m, IntTy::Int, 46_340, 46_340), Ok(2_147_395_600));
        let big = i128::from(i64::MAX);
        assert_eq!(int_binary(m, IntTy::Long, big, 2), Err(Ub::SignedOverflow));
        assert_eq!(
            int_binary(m, IntTy::Long, i128::from(i64::MIN), -1),
            Err(Ub::SignedOverflow)
        );
        // Unsigned products wrap, including operands of 2^63 and more.
        let umax = i128::from(u64::MAX);
        assert_eq!(int_binary(m, IntTy::ULong, umax, umax), Ok(1));
        assert_eq!(
            int_binary(m, IntTy::UInt, 100_000, 100_000),
            Ok(1_410_065_408)
        );
        // Capability-carrying products wrap; the caller derives the address.
        assert_eq!(int_binary(m, IntTy::IntPtr, big, 2), Ok(-2));
        assert_eq!(
            int_binary_ub_detail(m, Ub::SignedOverflow, 2),
            "multiplication overflow"
        );
    }

    #[test]
    fn wrap_signed_and_unsigned() {
        assert_eq!(IntTy::UChar.wrap(256), 0);
        assert_eq!(IntTy::SChar.wrap(128), -128);
        assert_eq!(IntTy::Int.wrap(i128::from(u32::MAX)), -1);
        assert_eq!(IntTy::Bool.wrap(42), 1);
        assert_eq!(IntTy::UIntPtr.wrap(-1), i128::from(u64::MAX));
    }

    #[test]
    fn capability_types_are_16_bytes_but_64_bit_valued() {
        let tt = TypeTable::new(TargetLayout { ptr_size: 16 });
        assert_eq!(tt.size_of(&Ty::Int(IntTy::IntPtr)), 16);
        assert_eq!(tt.size_of(&Ty::ptr(Ty::int())), 16);
        assert_eq!(IntTy::IntPtr.value_bits(), 64);
        // ... and in the baseline model they are 8 bytes.
        let tt8 = TypeTable::new(TargetLayout { ptr_size: 8 });
        assert_eq!(tt8.size_of(&Ty::Int(IntTy::UIntPtr)), 8);
    }

    #[test]
    fn struct_layout_with_capability_alignment() {
        let mut tt = TypeTable::new(TargetLayout { ptr_size: 16 });
        let id = tt.define_struct(
            "s",
            false,
            vec![
                ("c".into(), Ty::Int(IntTy::Char)),
                ("p".into(), Ty::ptr(Ty::int())),
                ("n".into(), Ty::int()),
            ],
        );
        let s = &tt.structs[id.0];
        assert_eq!(s.fields[0].offset, 0);
        assert_eq!(s.fields[1].offset, 16, "capability field 16-aligned");
        assert_eq!(s.fields[2].offset, 32);
        assert_eq!(s.size, 48, "tail padding to 16");
        assert_eq!(s.align, 16);
    }

    #[test]
    fn union_layout() {
        let mut tt = TypeTable::new(TargetLayout { ptr_size: 16 });
        let id = tt.define_struct(
            "ptr",
            true,
            vec![
                ("ptr".into(), Ty::ptr(Ty::int())),
                ("iptr".into(), Ty::Int(IntTy::UIntPtr)),
            ],
        );
        let s = &tt.structs[id.0];
        assert!(s.is_union);
        assert_eq!(s.fields[0].offset, 0);
        assert_eq!(s.fields[1].offset, 0);
        assert_eq!(s.size, 16);
    }

    #[test]
    fn array_size() {
        let tt = TypeTable::new(TargetLayout::default());
        assert_eq!(tt.size_of(&Ty::Array(Box::new(Ty::int()), Some(10))), 40);
    }

    #[test]
    fn min_max_values() {
        assert_eq!(IntTy::Int.max(), i128::from(i32::MAX));
        assert_eq!(IntTy::Int.min(), i128::from(i32::MIN));
        assert_eq!(IntTy::UInt.max(), i128::from(u32::MAX));
        assert_eq!(IntTy::UIntPtr.max(), i128::from(u64::MAX));
        assert!(IntTy::Int.fits(42));
        assert!(!IntTy::Int.fits(1i128 << 40));
    }
}
