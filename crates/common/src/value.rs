//! Dynamically typed cell values.
//!
//! TelegraphCQ processes heterogeneous streams whose schemas are only known
//! at query-registration time, so tuples are vectors of [`Value`]s. The type
//! lattice is intentionally small — the paper's workloads (stock ticks,
//! network monitors, sensor readings) need integers, floats, strings, bools
//! and timestamps.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{Result, TcqError};
use crate::schema::DataType;

/// A single dynamically typed cell.
///
/// `Value` is cheap to clone: strings are `Arc<str>`.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer (also used for logical timestamps).
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned immutable string.
    Str(Arc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`DataType`] of this value; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Approximate memory footprint in bytes: the inline enum plus any
    /// string heap payload. Shared `Arc<str>` payloads are counted once per
    /// holder (an upper bound under interning).
    pub fn approx_bytes(&self) -> usize {
        let heap = match self {
            Value::Str(s) => s.len(),
            _ => 0,
        };
        std::mem::size_of::<Value>() + heap
    }

    /// Type-exact identity: the same variant holding the same payload,
    /// floats by bit pattern. Unlike `==`, `Int(1)` is not identical to
    /// `Float(1.0)` (nor `-0.0` to `0.0`), so identical values behave alike
    /// in every expression.
    pub fn identical(&self, other: &Value) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }

    /// Feed `state` a hash consistent with [`Value::identical`].
    pub fn hash_identical<H: std::hash::Hasher>(&self, state: &mut H) {
        use std::hash::Hash;
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }

    /// Interpret as i64, coercing floats with truncation.
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) => Ok(*f as i64),
            other => Err(TcqError::Type(format!("expected Int, got {other}"))),
        }
    }

    /// Interpret as f64, coercing integers.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Float(f) => Ok(*f),
            Value::Int(i) => Ok(*i as f64),
            other => Err(TcqError::Type(format!("expected Float, got {other}"))),
        }
    }

    /// Interpret as &str.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(TcqError::Type(format!("expected Str, got {other}"))),
        }
    }

    /// SQL-style three-valued comparison. NULL compares as `None`.
    ///
    /// Numeric types are mutually comparable (Int vs Float compares as
    /// floats); other cross-type comparisons yield a type error.
    pub fn sql_cmp(&self, other: &Value) -> Result<Option<Ordering>> {
        use Value::*;
        Ok(match (self, other) {
            (Null, _) | (_, Null) => None,
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Float(a), Float(b)) => Some(total_f64_cmp(*a, *b)),
            (Int(a), Float(b)) => Some(total_f64_cmp(*a as f64, *b)),
            (Float(a), Int(b)) => Some(total_f64_cmp(*a, *b as f64)),
            (Str(a), Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            (a, b) => {
                return Err(TcqError::Type(format!("cannot compare {a} with {b}")));
            }
        })
    }

    /// Equality under SQL semantics: NULL = anything is `None` (unknown).
    pub fn sql_eq(&self, other: &Value) -> Result<Option<bool>> {
        Ok(self.sql_cmp(other)?.map(|o| o == Ordering::Equal))
    }

    /// Arithmetic addition with numeric coercion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::wrapping_add, |a, b| a + b, "+")
    }

    /// Arithmetic subtraction with numeric coercion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::wrapping_sub, |a, b| a - b, "-")
    }

    /// Arithmetic multiplication with numeric coercion.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, i64::wrapping_mul, |a, b| a * b, "*")
    }

    /// Arithmetic division. Integer division by zero is a type error;
    /// float division by zero follows IEEE-754.
    pub fn div(&self, other: &Value) -> Result<Value> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => Ok(Null),
            (Int(_), Int(0)) => Err(TcqError::Type("integer division by zero".into())),
            (Int(a), Int(b)) => Ok(Int(a / b)),
            _ => Ok(Float(self.as_float()? / other.as_float()?)),
        }
    }

    /// A *total* order over all values, for use in ordered indexes
    /// (grouped-filter range trees, sort operators). Orders first by type
    /// class — Null < Bool < numeric < Str — then by value; Int and Float
    /// interleave numerically, consistent with [`Value::sql_cmp`] and `Eq`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn class(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Str(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => total_f64_cmp(*a, *b),
            (Int(a), Float(b)) => total_f64_cmp(*a as f64, *b),
            (Float(a), Int(b)) => total_f64_cmp(*a, *b as f64),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => class(a).cmp(&class(b)),
        }
    }

    /// A stable hash key usable for hash joins and grouping.
    ///
    /// Int and Float values that are numerically equal integers hash the
    /// same, matching [`Value::sql_cmp`] (which treats `1` = `1.0`).
    pub fn hash_key(&self, state: &mut impl std::hash::Hasher) {
        use std::hash::Hash;
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                // Normalize -0.0 to 0.0 and every NaN bit pattern to the
                // canonical NaN: total_f64_cmp (and thus Eq) treats -0.0
                // == 0.0 and NaN == NaN, so their hashes must agree too.
                let f = if *f == 0.0 {
                    0.0
                } else if f.is_nan() {
                    f64::NAN
                } else {
                    *f
                };
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

/// Total order over f64 treating NaN as greater than everything, so sorts
/// and comparisons never panic on sensor glitches. Crate-visible so the
/// columnar kernel lanes compare floats exactly like [`Value::sql_cmp`].
pub(crate) fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match a.partial_cmp(&b) {
        Some(o) => o,
        None => match (a.is_nan(), b.is_nan()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => unreachable!("partial_cmp only fails on NaN"),
        },
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    int_op: fn(i64, i64) -> i64,
    float_op: fn(f64, f64) -> f64,
    op: &str,
) -> Result<Value> {
    use Value::*;
    match (a, b) {
        (Null, _) | (_, Null) => Ok(Null),
        (Int(x), Int(y)) => Ok(Int(int_op(*x, *y))),
        (Int(_) | Float(_), Int(_) | Float(_)) => Ok(Float(float_op(a.as_float()?, b.as_float()?))),
        _ => Err(TcqError::Type(format!("cannot apply {op} to {a} and {b}"))),
    }
}

impl PartialEq for Value {
    /// Structural equality used by tests and hash-join buckets. Unlike
    /// [`Value::sql_eq`], NULL == NULL here (so tuples can be compared).
    /// Int/Float cross-compare numerically to stay consistent with
    /// [`Value::hash_key`].
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (Null, Null) => true,
            (Bool(a), Bool(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => total_f64_cmp(*a, *b) == Ordering::Equal,
            (Int(a), Float(b)) | (Float(b), Int(a)) => {
                total_f64_cmp(*a as f64, *b) == Ordering::Equal
            }
            (Str(a), Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.hash_key(state);
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(
            Value::Int(3).sql_cmp(&Value::Float(3.0)).unwrap(),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(2.5).sql_cmp(&Value::Int(3)).unwrap(),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null).unwrap(), None);
    }

    #[test]
    fn incompatible_types_error() {
        assert!(Value::Int(1).sql_cmp(&Value::str("x")).is_err());
        assert!(Value::Bool(true).add(&Value::Int(1)).is_err());
    }

    #[test]
    fn arithmetic_coercion() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).add(&Value::Float(0.5)).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(Value::Null.mul(&Value::Int(3)).unwrap(), Value::Null);
    }

    #[test]
    fn integer_division_by_zero_errors() {
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        // float path follows IEEE
        let v = Value::Float(1.0).div(&Value::Int(0)).unwrap();
        assert!(matches!(v, Value::Float(f) if f.is_infinite()));
    }

    #[test]
    fn hash_consistent_with_eq_across_int_float() {
        assert_eq!(Value::Int(7), Value::Float(7.0));
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn identical_is_type_exact_where_eq_is_numeric() {
        let identical_hash = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash_identical(&mut h);
            h.finish()
        };
        for (a, b) in [
            (Value::Int(1), Value::Float(1.0)),
            (Value::Float(-0.0), Value::Float(0.0)),
        ] {
            assert_eq!(a, b);
            assert!(!a.identical(&b), "{a:?} vs {b:?}");
        }
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(7),
            Value::Float(f64::NAN),
            Value::str("x"),
        ] {
            assert!(v.identical(&v.clone()), "{v:?}");
            assert_eq!(identical_hash(&v), identical_hash(&v.clone()));
        }
    }

    #[test]
    fn negative_zero_hashes_like_zero() {
        assert_eq!(Value::Float(-0.0), Value::Float(0.0));
        assert_eq!(hash_of(&Value::Float(-0.0)), hash_of(&Value::Float(0.0)));
    }

    #[test]
    fn every_nan_bit_pattern_hashes_identically() {
        // Eq treats all NaNs as equal (total_f64_cmp), so Hash must too —
        // the SteM prehashed probe path relies on it.
        let quiet = Value::Float(f64::NAN);
        let negated = Value::Float(-f64::NAN);
        let payload = Value::Float(f64::from_bits(f64::NAN.to_bits() | 0xDEAD));
        assert_eq!(quiet, negated);
        assert_eq!(quiet, payload);
        assert_eq!(hash_of(&quiet), hash_of(&negated));
        assert_eq!(hash_of(&quiet), hash_of(&payload));
    }

    /// Seeded property: for randomized value pairs (including adversarial
    /// floats — NaN payloads, signed zeros, integral floats), equal values
    /// always hash equal. Pins the Hash/Eq coherence the prehashed SteM
    /// index depends on.
    #[test]
    fn hash_agrees_with_eq_on_random_value_pairs() {
        let mut rng = crate::rng::seeded(crate::rng::derive_seed(0x4A5E_C0DE, 0));
        let gen_value = |rng: &mut crate::rng::TcqRng| -> Value {
            match rng.gen_range(0usize..8) {
                0 => Value::Null,
                1 => Value::Bool(rng.gen()),
                2 => Value::Int(rng.gen_range(-4i64..4)),
                3 => Value::Int(rng.gen()),
                4 => Value::Float(rng.gen_range(-4.0..4.0)),
                5 => Value::Float(rng.gen_range(-4i64..4) as f64),
                6 => Value::Float(match rng.gen_range(0usize..4) {
                    0 => f64::NAN,
                    1 => -f64::NAN,
                    2 => f64::from_bits(f64::NAN.to_bits() | (rng.gen::<u64>() & 0xFFFF)),
                    _ => -0.0,
                }),
                _ => Value::str(["a", "b", "ab", ""][rng.gen_range(0usize..4)]),
            }
        };
        for case in 0..20_000 {
            let a = gen_value(&mut rng);
            let b = gen_value(&mut rng);
            if a == b {
                assert_eq!(
                    hash_of(&a),
                    hash_of(&b),
                    "case {case}: {a} == {b} but hashes differ"
                );
            }
        }
    }

    #[test]
    fn nan_is_totally_ordered() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(
            nan.sql_cmp(&Value::Float(1e308)).unwrap(),
            Some(Ordering::Greater)
        );
        assert_eq!(nan.sql_cmp(&nan).unwrap(), Some(Ordering::Equal));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::str("MSFT").to_string(), "'MSFT'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }
}
