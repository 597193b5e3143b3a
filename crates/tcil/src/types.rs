//! The TCL type system and the byte-exact data layout of the M16 target.
//!
//! Layout rules (deliberately simple, like an 8/16-bit microcontroller ABI):
//!
//! * integers are 1, 2, or 4 bytes; there is **no alignment padding** —
//!   the AVR-class targets the paper uses have byte-aligned memory, which
//!   is also why the x86 alignment checks in the original CCured runtime
//!   could be deleted (§2.3),
//! * thin pointers are 2 bytes,
//! * CCured fat pointers occupy 2 (`FSEQ`) or 3 (`SEQ`) machine words —
//!   after the curing pass they are represented as ordinary structs, but
//!   [`PtrKind`] annotations carry the inference result.

use std::fmt;

/// Width and signedness of an integer type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IntKind {
    /// `uint8_t`, `bool`, `result_t`
    U8,
    /// `int8_t`, `char`
    I8,
    /// `uint16_t`
    U16,
    /// `int16_t`, `int`
    I16,
    /// `uint32_t`
    U32,
    /// `int32_t`
    I32,
}

impl IntKind {
    /// Size of the type in bytes.
    pub fn size(self) -> u32 {
        match self {
            IntKind::U8 | IntKind::I8 => 1,
            IntKind::U16 | IntKind::I16 => 2,
            IntKind::U32 | IntKind::I32 => 4,
        }
    }

    /// Whether the type is signed.
    pub fn signed(self) -> bool {
        matches!(self, IntKind::I8 | IntKind::I16 | IntKind::I32)
    }

    /// The unsigned kind of the same width.
    pub fn unsigned(self) -> IntKind {
        match self {
            IntKind::I8 => IntKind::U8,
            IntKind::I16 => IntKind::U16,
            IntKind::I32 => IntKind::U32,
            k => k,
        }
    }

    /// Wraps `v` to this type's range, exactly as a store+load through
    /// memory of this width would on the target.
    pub fn wrap(self, v: i64) -> i64 {
        match self {
            IntKind::U8 => v as u8 as i64,
            IntKind::I8 => v as i8 as i64,
            IntKind::U16 => v as u16 as i64,
            IntKind::I16 => v as i16 as i64,
            IntKind::U32 => v as u32 as i64,
            IntKind::I32 => v as i32 as i64,
        }
    }

    /// Smallest representable value.
    pub fn min_value(self) -> i64 {
        if self.signed() {
            -(1i64 << (self.size() * 8 - 1))
        } else {
            0
        }
    }

    /// Largest representable value.
    pub fn max_value(self) -> i64 {
        if self.signed() {
            (1i64 << (self.size() * 8 - 1)) - 1
        } else {
            (1i64 << (self.size() * 8)) - 1
        }
    }

    /// The C "usual arithmetic conversion" result of combining two kinds:
    /// the wider width wins; at equal width unsigned wins.
    pub fn promote(a: IntKind, b: IntKind) -> IntKind {
        let w = a.size().max(b.size()).max(2); // integer promotion to >= 16 bit
        let signed = match a.size().cmp(&b.size()) {
            std::cmp::Ordering::Greater => a.signed(),
            std::cmp::Ordering::Less => b.signed(),
            std::cmp::Ordering::Equal => a.signed() && b.signed(),
        };
        IntKind::from_parts(w, signed)
    }

    /// Builds a kind from a byte width and signedness.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not 1, 2, or 4.
    pub fn from_parts(size: u32, signed: bool) -> IntKind {
        match (size, signed) {
            (1, false) => IntKind::U8,
            (1, true) => IntKind::I8,
            (2, false) => IntKind::U16,
            (2, true) => IntKind::I16,
            (4, false) => IntKind::U32,
            (4, true) => IntKind::I32,
            _ => panic!("invalid integer width {size}"),
        }
    }
}

impl fmt::Display for IntKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IntKind::U8 => "uint8_t",
            IntKind::I8 => "int8_t",
            IntKind::U16 => "uint16_t",
            IntKind::I16 => "int16_t",
            IntKind::U32 => "uint32_t",
            IntKind::I32 => "int32_t",
        };
        f.write_str(name)
    }
}

/// CCured pointer kind, the result of whole-program pointer-kind inference.
///
/// * `Thin` — an uninstrumented pointer (unsafe baseline, or trusted code).
/// * `Safe` — needs only a null check before dereference; 1 word.
/// * `Fseq` — used with *forward* arithmetic; carries an upper bound; 2 words.
/// * `Seq`  — used with arbitrary arithmetic; carries both bounds; 3 words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum PtrKind {
    /// Plain machine pointer, no metadata, no checks.
    #[default]
    Thin,
    /// Checked pointer with no arithmetic: null check only.
    Safe,
    /// Forward-sequence pointer: value + end bound.
    Fseq,
    /// Sequence pointer: value + base + end bounds.
    Seq,
}

impl PtrKind {
    /// Number of 16-bit machine words this pointer representation occupies.
    pub fn words(self) -> u32 {
        match self {
            PtrKind::Thin | PtrKind::Safe => 1,
            PtrKind::Fseq => 2,
            PtrKind::Seq => 3,
        }
    }

    /// Least upper bound in the kind lattice `Safe < Fseq < Seq`
    /// (`Thin` is incomparable: trusted pointers stay thin).
    pub fn join(self, other: PtrKind) -> PtrKind {
        use PtrKind::*;
        match (self, other) {
            (Thin, k) | (k, Thin) => k,
            (Seq, _) | (_, Seq) => Seq,
            (Fseq, _) | (_, Fseq) => Fseq,
            (Safe, Safe) => Safe,
        }
    }
}

/// Identifies a struct definition within a [`crate::ir::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StructId(pub u32);

/// A struct field.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
}

/// A struct definition. Fields are laid out in order with no padding.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructDef {
    /// Struct tag name.
    pub name: String,
    /// Ordered fields.
    pub fields: Vec<Field>,
}

impl StructDef {
    /// Finds a field index by name.
    pub fn field_index(&self, name: &str) -> Option<u32> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| i as u32)
    }
}

/// A TCL type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — only valid as a function return type or pointee.
    Void,
    /// Integer type.
    Int(IntKind),
    /// Pointer with a CCured kind annotation.
    Ptr(Box<Type>, PtrKind),
    /// Fixed-size array.
    Array(Box<Type>, u32),
    /// Named struct.
    Struct(StructId),
}

impl Type {
    /// Shorthand for `Type::Int(IntKind::U8)`.
    pub fn u8() -> Type {
        Type::Int(IntKind::U8)
    }

    /// Shorthand for `Type::Int(IntKind::U16)`.
    pub fn u16() -> Type {
        Type::Int(IntKind::U16)
    }

    /// Shorthand for a thin pointer to `t`.
    pub fn thin_ptr(t: Type) -> Type {
        Type::Ptr(Box::new(t), PtrKind::Thin)
    }

    /// Returns the integer kind if this is an integer type.
    pub fn as_int(&self) -> Option<IntKind> {
        match self {
            Type::Int(k) => Some(*k),
            _ => None,
        }
    }

    /// Returns `(pointee, kind)` if this is a pointer type.
    pub fn as_ptr(&self) -> Option<(&Type, PtrKind)> {
        match self {
            Type::Ptr(t, k) => Some((t, *k)),
            _ => None,
        }
    }

    /// True if this is a pointer type (of any kind).
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(..))
    }

    /// True if this is an integer type.
    pub fn is_int(&self) -> bool {
        matches!(self, Type::Int(_))
    }

    /// True for types a value of which fits in a single eval-stack cell
    /// (integers and thin/safe pointers).
    pub fn is_scalar(&self) -> bool {
        match self {
            Type::Int(_) => true,
            Type::Ptr(_, k) => k.words() == 1,
            _ => false,
        }
    }

    /// Structural equality ignoring pointer-kind annotations: the type
    /// checker uses this, since kinds are inferred later by the CCured
    /// stage and must not affect what programs are accepted.
    pub fn compat(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Void, Type::Void) => true,
            (Type::Int(a), Type::Int(b)) => a == b,
            (Type::Ptr(a, _), Type::Ptr(b, _)) => a.compat(b),
            (Type::Array(a, n), Type::Array(b, m)) => n == m && a.compat(b),
            (Type::Struct(a), Type::Struct(b)) => a == b,
            _ => false,
        }
    }
}

/// Computes sizes and field offsets under the no-padding layout.
///
/// Layout depends on the struct table (and, through pointer kinds, on the
/// result of CCured inference), so it is a free function over the table
/// rather than a method on [`Type`].
pub fn size_of(ty: &Type, structs: &[StructDef]) -> u32 {
    match ty {
        Type::Void => 0,
        Type::Int(k) => k.size(),
        Type::Ptr(_, k) => k.words() * 2,
        Type::Array(t, n) => size_of(t, structs) * n,
        Type::Struct(sid) => structs[sid.0 as usize]
            .fields
            .iter()
            .map(|f| size_of(&f.ty, structs))
            .sum(),
    }
}

/// Byte offset of field `idx` within struct `sid`.
///
/// # Panics
///
/// Panics if `idx` is out of range for the struct.
pub fn field_offset(sid: StructId, idx: u32, structs: &[StructDef]) -> u32 {
    let def = &structs[sid.0 as usize];
    assert!(
        (idx as usize) < def.fields.len(),
        "field index out of range"
    );
    def.fields[..idx as usize]
        .iter()
        .map(|f| size_of(&f.ty, structs))
        .sum()
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int(k) => write!(f, "{k}"),
            Type::Ptr(t, PtrKind::Thin) => write!(f, "{t} *"),
            Type::Ptr(t, k) => write!(f, "{t} * /*{k:?}*/"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
            Type::Struct(sid) => write!(f, "struct #{}", sid.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_sizes_and_ranges() {
        assert_eq!(IntKind::U8.size(), 1);
        assert_eq!(IntKind::I32.size(), 4);
        assert_eq!(IntKind::U16.max_value(), 65535);
        assert_eq!(IntKind::I8.min_value(), -128);
        assert_eq!(IntKind::I16.max_value(), 32767);
    }

    #[test]
    fn wrap_matches_two_complement() {
        assert_eq!(IntKind::U8.wrap(256), 0);
        assert_eq!(IntKind::U8.wrap(-1), 255);
        assert_eq!(IntKind::I8.wrap(130), -126);
        assert_eq!(IntKind::U16.wrap(65536 + 7), 7);
        assert_eq!(IntKind::I16.wrap(0x8000), -32768);
    }

    #[test]
    fn promotion_follows_c_rules() {
        // Everything promotes to at least 16 bits on this target.
        assert_eq!(IntKind::promote(IntKind::U8, IntKind::U8), IntKind::U16);
        assert_eq!(IntKind::promote(IntKind::I8, IntKind::I8), IntKind::I16);
        assert_eq!(IntKind::promote(IntKind::U16, IntKind::I16), IntKind::U16);
        assert_eq!(IntKind::promote(IntKind::I32, IntKind::U16), IntKind::I32);
        assert_eq!(IntKind::promote(IntKind::U32, IntKind::I32), IntKind::U32);
    }

    #[test]
    fn pointer_kind_words_and_join() {
        assert_eq!(PtrKind::Thin.words(), 1);
        assert_eq!(PtrKind::Seq.words(), 3);
        assert_eq!(PtrKind::Safe.join(PtrKind::Fseq), PtrKind::Fseq);
        assert_eq!(PtrKind::Fseq.join(PtrKind::Seq), PtrKind::Seq);
        assert_eq!(PtrKind::Thin.join(PtrKind::Safe), PtrKind::Safe);
    }

    #[test]
    fn layout_has_no_padding() {
        let structs = vec![StructDef {
            name: "s".into(),
            fields: vec![
                Field {
                    name: "a".into(),
                    ty: Type::u8(),
                },
                Field {
                    name: "b".into(),
                    ty: Type::Int(IntKind::U32),
                },
                Field {
                    name: "c".into(),
                    ty: Type::u8(),
                },
            ],
        }];
        let s = Type::Struct(StructId(0));
        assert_eq!(size_of(&s, &structs), 6);
        assert_eq!(field_offset(StructId(0), 0, &structs), 0);
        assert_eq!(field_offset(StructId(0), 1, &structs), 1);
        assert_eq!(field_offset(StructId(0), 2, &structs), 5);
    }

    #[test]
    fn fat_pointer_layout_matches_kind() {
        let t = Type::Ptr(Box::new(Type::u8()), PtrKind::Seq);
        assert_eq!(size_of(&t, &[]), 6);
        let t = Type::Ptr(Box::new(Type::u8()), PtrKind::Fseq);
        assert_eq!(size_of(&t, &[]), 4);
        let t = Type::thin_ptr(Type::u8());
        assert_eq!(size_of(&t, &[]), 2);
    }

    #[test]
    fn compat_ignores_pointer_kinds() {
        let a = Type::Ptr(Box::new(Type::u8()), PtrKind::Thin);
        let b = Type::Ptr(Box::new(Type::u8()), PtrKind::Seq);
        assert!(a.compat(&b));
        assert!(!a.compat(&Type::thin_ptr(Type::u16())));
    }

    #[test]
    fn array_size_scales() {
        let t = Type::Array(Box::new(Type::u16()), 10);
        assert_eq!(size_of(&t, &[]), 20);
    }
}
