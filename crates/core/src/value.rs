//! Runtime values and the small type system shared by the hardware and
//! software sides of the unified model.
//!
//! Every signal, port, variable and service argument in the IR carries a
//! [`Type`]; the interpreter, the co-simulation kernel and the synthesized
//! artifacts all exchange [`Value`]s. Integer values are clamped to their
//! declared bit width on assignment, which is what makes the interpreted
//! FSM, the C views and the synthesized RTL agree bit-for-bit.

use crate::bit::Bit;
use std::fmt;
use std::sync::Arc;

/// An enumeration type (the IR image of C `typedef enum` and of VHDL
/// enumerated types such as the `STATETABLE` in the paper's Figure 3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnumType {
    name: String,
    variants: Vec<String>,
}

impl EnumType {
    /// Creates an enum type from a name and variant list.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is empty; an enum with no variants has no
    /// values and cannot initialize a variable.
    #[must_use]
    pub fn new(name: impl Into<String>, variants: Vec<String>) -> Arc<Self> {
        assert!(
            !variants.is_empty(),
            "enum type must have at least one variant"
        );
        Arc::new(EnumType {
            name: name.into(),
            variants,
        })
    }

    /// The type's declared name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered variant names.
    #[must_use]
    pub fn variants(&self) -> &[String] {
        &self.variants
    }

    /// Index of a variant by name.
    #[must_use]
    pub fn index_of(&self, variant: &str) -> Option<u32> {
        self.variants
            .iter()
            .position(|v| v == variant)
            .map(|i| i as u32)
    }

    /// Number of bits needed to encode the enum in binary.
    #[must_use]
    pub fn encoding_width(&self) -> u32 {
        let n = self.variants.len() as u32;
        if n <= 1 {
            1
        } else {
            32 - (n - 1).leading_zeros()
        }
    }
}

/// The IR type of a port, signal, variable or service argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// Single four-valued logic bit (VHDL `std_logic`-like).
    Bit,
    /// Boolean (guards, flags).
    Bool,
    /// Integer with an explicit bit width and signedness.
    ///
    /// The paper's `INTEGER` maps to `Type::int(16, true)` on the 16-bit
    /// PC-AT bus target.
    Int {
        /// Number of bits (1..=63).
        width: u32,
        /// Two's-complement when `true`.
        signed: bool,
    },
    /// Enumerated type (FSM state tables and friends).
    Enum(Arc<EnumType>),
}

impl Type {
    /// Convenience constructor for integer types.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 63 (values are stored in
    /// `i64`, and 64-bit unsigned would not fit).
    #[must_use]
    pub fn int(width: u32, signed: bool) -> Type {
        assert!((1..=63).contains(&width), "integer width must be in 1..=63");
        Type::Int { width, signed }
    }

    /// The canonical 16-bit signed integer used by the paper's examples.
    pub const INT16: Type = Type::Int {
        width: 16,
        signed: true,
    };

    /// Unsigned 16-bit integer (bus words).
    pub const UINT16: Type = Type::Int {
        width: 16,
        signed: false,
    };

    /// Bit width occupied by this type when synthesized to hardware.
    #[must_use]
    pub fn bit_width(&self) -> u32 {
        match self {
            Type::Bit | Type::Bool => 1,
            Type::Int { width, .. } => *width,
            Type::Enum(e) => e.encoding_width(),
        }
    }

    /// The default initial value for the type (`'0'`, `false`, `0` or the
    /// first enum variant).
    #[must_use]
    pub fn default_value(&self) -> Value {
        match self {
            Type::Bit => Value::Bit(Bit::Zero),
            Type::Bool => Value::Bool(false),
            Type::Int { .. } => Value::Int(0),
            Type::Enum(e) => Value::Enum(EnumValue {
                ty: e.clone(),
                index: 0,
            }),
        }
    }

    /// Clamps an integer to this type's width/signedness. Non-integer
    /// types return the input unchanged.
    #[must_use]
    #[inline]
    pub fn clamp(&self, v: Value) -> Value {
        match (self, v) {
            (Type::Int { width, signed }, Value::Int(i)) => {
                Value::Int(clamp_int(i, *width, *signed))
            }
            (_, v) => v,
        }
    }

    /// Whether `v` is a value of this type (after clamping).
    #[must_use]
    #[inline]
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (Type::Bit, Value::Bit(_))
            | (Type::Bool, Value::Bool(_))
            | (Type::Int { .. }, Value::Int(_)) => true,
            (Type::Enum(e), Value::Enum(ev)) => Arc::ptr_eq(e, &ev.ty) || **e == *ev.ty,
            _ => false,
        }
    }

    /// The clamp-and-admit rule of a drive, the same on every platform:
    /// the value a signal, wire or port of this type stores when driven
    /// with `v`, which is `v` clamped to the type ([`Type::clamp`]).
    ///
    /// # Errors
    ///
    /// Returns the clamped value back when the type does not admit it
    /// ([`Type::admits`]: an integer onto a bit, an enum onto an
    /// integer); the caller refuses the drive with
    /// [`EvalError::incompatible_drive`](crate::EvalError::incompatible_drive).
    #[inline]
    pub fn admit(&self, v: Value) -> Result<Value, Value> {
        let v = self.clamp(v);
        if self.admits(&v) {
            Ok(v)
        } else {
            Err(v)
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bit => write!(f, "bit"),
            Type::Bool => write!(f, "bool"),
            Type::Int {
                width,
                signed: true,
            } => write!(f, "int{width}"),
            Type::Int {
                width,
                signed: false,
            } => write!(f, "uint{width}"),
            Type::Enum(e) => write!(f, "enum {}", e.name()),
        }
    }
}

/// Wraps `i` into the representable range of a `width`-bit integer.
#[inline]
fn clamp_int(i: i64, width: u32, signed: bool) -> i64 {
    let mask: u64 = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let raw = (i as u64) & mask;
    if signed {
        let sign_bit = 1u64 << (width - 1);
        if raw & sign_bit != 0 {
            (raw | !mask) as i64
        } else {
            raw as i64
        }
    } else {
        raw as i64
    }
}

/// A value of an enumerated type: the type plus a variant index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EnumValue {
    ty: Arc<EnumType>,
    index: u32,
}

impl EnumValue {
    /// Creates an enum value by variant name.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::NoSuchVariant`] if `variant` is not declared
    /// by `ty`.
    pub fn new(ty: Arc<EnumType>, variant: &str) -> Result<Self, ValueError> {
        match ty.index_of(variant) {
            Some(index) => Ok(EnumValue { ty, index }),
            None => Err(ValueError::NoSuchVariant {
                ty: ty.name().to_string(),
                variant: variant.to_string(),
            }),
        }
    }

    /// Creates an enum value by index.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::NoSuchVariant`] if `index` is out of range.
    pub fn from_index(ty: Arc<EnumType>, index: u32) -> Result<Self, ValueError> {
        if (index as usize) < ty.variants().len() {
            Ok(EnumValue { ty, index })
        } else {
            Err(ValueError::NoSuchVariant {
                ty: ty.name().to_string(),
                variant: format!("#{index}"),
            })
        }
    }

    /// The value's type.
    #[must_use]
    pub fn ty(&self) -> &Arc<EnumType> {
        &self.ty
    }

    /// The variant index.
    #[must_use]
    pub fn index(&self) -> u32 {
        self.index
    }

    /// The variant name.
    #[must_use]
    pub fn variant(&self) -> &str {
        &self.ty.variants()[self.index as usize]
    }
}

/// A runtime value flowing through the interpreter, the co-simulation
/// kernel, the ISS and the synthesized netlists.
///
/// # Examples
///
/// ```
/// use cosma_core::{Value, Bit};
///
/// let v = Value::Int(300);
/// assert_eq!(v.as_int().unwrap(), 300);
/// assert_eq!(Value::Bit(Bit::One).truthy(), Some(true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Four-valued logic bit.
    Bit(Bit),
    /// Boolean.
    Bool(bool),
    /// Integer (stored as `i64`, clamped to declared widths on assignment).
    Int(i64),
    /// Enumerated value.
    Enum(EnumValue),
}

impl Value {
    /// The integer payload, if this is an integer.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] otherwise.
    pub fn as_int(&self) -> Result<i64, ValueError> {
        match self {
            Value::Int(i) => Ok(*i),
            other => Err(ValueError::type_mismatch("int", other)),
        }
    }

    /// The bit payload, if this is a bit.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] otherwise.
    pub fn as_bit(&self) -> Result<Bit, ValueError> {
        match self {
            Value::Bit(b) => Ok(*b),
            other => Err(ValueError::type_mismatch("bit", other)),
        }
    }

    /// The boolean payload, if this is a bool.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::TypeMismatch`] otherwise.
    pub fn as_bool(&self) -> Result<bool, ValueError> {
        match self {
            Value::Bool(b) => Ok(*b),
            other => Err(ValueError::type_mismatch("bool", other)),
        }
    }

    /// Interprets the value as a condition: `Bool` directly, `Bit::One` /
    /// `Bit::Zero` as true/false, nonzero integers as true. `X`/`Z` bits
    /// are *not* conditions and yield `None` (unknown propagation).
    #[must_use]
    pub fn truthy(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Bit(b) => b.to_bool(),
            Value::Int(i) => Some(*i != 0),
            Value::Enum(_) => None,
        }
    }

    /// Converts the value into the raw bits used on a bus of `width` bits.
    /// Bits map to 0/1 (X and Z read as 0, matching a real sampled bus),
    /// booleans to 0/1, enums to their index.
    #[must_use]
    pub fn to_bus_word(&self, width: u32) -> u64 {
        let mask = if width >= 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let raw = match self {
            Value::Bit(b) => u64::from(*b == Bit::One),
            Value::Bool(b) => u64::from(*b),
            Value::Int(i) => *i as u64,
            Value::Enum(e) => u64::from(e.index()),
        };
        raw & mask
    }

    /// Reconstructs a value of type `ty` from raw bus bits.
    ///
    /// # Errors
    ///
    /// Returns [`ValueError::NoSuchVariant`] if an enum index is out of
    /// range.
    pub fn from_bus_word(ty: &Type, word: u64) -> Result<Value, ValueError> {
        Ok(match ty {
            Type::Bit => Value::Bit(Bit::from(word & 1 == 1)),
            Type::Bool => Value::Bool(word & 1 == 1),
            Type::Int { width, signed } => Value::Int(clamp_int(word as i64, *width, *signed)),
            Type::Enum(e) => Value::Enum(EnumValue::from_index(e.clone(), word as u32)?),
        })
    }

    /// The [`Type`] this value naturally belongs to (integers report the
    /// canonical 16-bit signed type used throughout the paper's example).
    #[must_use]
    pub fn ty(&self) -> Type {
        match self {
            Value::Bit(_) => Type::Bit,
            Value::Bool(_) => Type::Bool,
            Value::Int(_) => Type::INT16,
            Value::Enum(e) => Type::Enum(e.ty().clone()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bit(b) => write!(f, "'{b}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Enum(e) => write!(f, "{}", e.variant()),
        }
    }
}

impl From<Bit> for Value {
    fn from(b: Bit) -> Self {
        Value::Bit(b)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

/// Errors produced by value conversions and typed assignments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    /// The value did not have the expected kind.
    TypeMismatch {
        /// What the operation needed.
        expected: String,
        /// What it got (display form).
        found: String,
    },
    /// An enum variant name or index was not declared by the type.
    NoSuchVariant {
        /// Enum type name.
        ty: String,
        /// Offending variant.
        variant: String,
    },
}

impl ValueError {
    fn type_mismatch(expected: &str, found: &Value) -> Self {
        ValueError::TypeMismatch {
            expected: expected.to_string(),
            found: format!("{found:?}"),
        }
    }
}

impl fmt::Display for ValueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueError::TypeMismatch { expected, found } => {
                write!(f, "expected {expected} value, found {found}")
            }
            ValueError::NoSuchVariant { ty, variant } => {
                write!(f, "enum {ty} has no variant {variant}")
            }
        }
    }
}

impl std::error::Error for ValueError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_table() -> Arc<EnumType> {
        EnumType::new(
            "STATETABLE",
            vec![
                "INIT".into(),
                "WAIT_B_FULL".into(),
                "DATA_RDY".into(),
                "IDLE".into(),
            ],
        )
    }

    #[test]
    fn enum_indexing_and_names() {
        let t = state_table();
        assert_eq!(t.index_of("INIT"), Some(0));
        assert_eq!(t.index_of("IDLE"), Some(3));
        assert_eq!(t.index_of("BOGUS"), None);
        let v = EnumValue::new(t.clone(), "DATA_RDY").unwrap();
        assert_eq!(v.index(), 2);
        assert_eq!(v.variant(), "DATA_RDY");
    }

    #[test]
    fn enum_encoding_width() {
        let t = state_table();
        assert_eq!(t.encoding_width(), 2);
        let one = EnumType::new("ONE", vec!["A".into()]);
        assert_eq!(one.encoding_width(), 1);
        let five = EnumType::new(
            "FIVE",
            vec!["A".into(), "B".into(), "C".into(), "D".into(), "E".into()],
        );
        assert_eq!(five.encoding_width(), 3);
    }

    #[test]
    fn enum_unknown_variant_is_error() {
        let t = state_table();
        let err = EnumValue::new(t.clone(), "NOPE").unwrap_err();
        assert!(err.to_string().contains("NOPE"));
        assert!(EnumValue::from_index(t, 99).is_err());
    }

    #[test]
    fn int_clamp_signed() {
        let t = Type::int(4, true);
        assert_eq!(t.clamp(Value::Int(7)), Value::Int(7));
        assert_eq!(t.clamp(Value::Int(8)), Value::Int(-8));
        assert_eq!(t.clamp(Value::Int(-1)), Value::Int(-1));
        assert_eq!(t.clamp(Value::Int(16)), Value::Int(0));
    }

    #[test]
    fn int_clamp_unsigned() {
        let t = Type::int(4, false);
        assert_eq!(t.clamp(Value::Int(15)), Value::Int(15));
        assert_eq!(t.clamp(Value::Int(16)), Value::Int(0));
        assert_eq!(t.clamp(Value::Int(-1)), Value::Int(15));
    }

    #[test]
    #[should_panic(expected = "integer width")]
    fn zero_width_int_panics() {
        let _ = Type::int(0, false);
    }

    #[test]
    fn default_values() {
        assert_eq!(Type::Bit.default_value(), Value::Bit(Bit::Zero));
        assert_eq!(Type::Bool.default_value(), Value::Bool(false));
        assert_eq!(Type::INT16.default_value(), Value::Int(0));
        let t = state_table();
        match Type::Enum(t).default_value() {
            Value::Enum(e) => assert_eq!(e.variant(), "INIT"),
            other => panic!("unexpected default {other:?}"),
        }
    }

    #[test]
    fn truthiness() {
        assert_eq!(Value::Bool(true).truthy(), Some(true));
        assert_eq!(Value::Bit(Bit::One).truthy(), Some(true));
        assert_eq!(Value::Bit(Bit::X).truthy(), None);
        assert_eq!(Value::Int(0).truthy(), Some(false));
        assert_eq!(Value::Int(-3).truthy(), Some(true));
    }

    #[test]
    fn bus_word_round_trip() {
        let t = Type::INT16;
        let v = Value::Int(-2);
        let w = v.to_bus_word(16);
        assert_eq!(w, 0xFFFE);
        assert_eq!(Value::from_bus_word(&t, w).unwrap(), Value::Int(-2));

        let tb = Type::Bit;
        assert_eq!(Value::Bit(Bit::One).to_bus_word(1), 1);
        assert_eq!(Value::from_bus_word(&tb, 1).unwrap(), Value::Bit(Bit::One));
    }

    #[test]
    fn bus_word_x_reads_as_zero() {
        assert_eq!(Value::Bit(Bit::X).to_bus_word(1), 0);
        assert_eq!(Value::Bit(Bit::Z).to_bus_word(1), 0);
    }

    #[test]
    fn admits_checks_types() {
        let t = state_table();
        let v = Value::Enum(EnumValue::new(t.clone(), "INIT").unwrap());
        assert!(Type::Enum(t.clone()).admits(&v));
        assert!(!Type::INT16.admits(&v));
        assert!(Type::INT16.admits(&Value::Int(5)));
        assert!(!Type::Bit.admits(&Value::Bool(true)));
    }

    #[test]
    fn admit_clamps_or_refuses() {
        assert_eq!(Type::INT16.admit(Value::Int(70_000)), Ok(Value::Int(4464)));
        let v = Value::Enum(EnumValue::new(state_table(), "INIT").unwrap());
        assert_eq!(Type::INT16.admit(v.clone()), Err(v.clone()));
        let err = crate::EvalError::incompatible_drive(&"wire hs.DATA", &Type::INT16, &v);
        assert!(
            err.to_string()
                .starts_with("drive of wire hs.DATA (int16) with incompatible value Enum("),
            "{err}"
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Bit(Bit::One).to_string(), "'1'");
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Type::INT16.to_string(), "int16");
        assert_eq!(Type::int(8, false).to_string(), "uint8");
    }
}
