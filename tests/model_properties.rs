//! Model-based and robustness properties: the front-end never panics on
//! arbitrary input, algebraic laws hold for the value lattice, and compact
//! data structures agree with their obvious reference models.
//!
//! Cases are generated deterministically from `tcq_common::rng` (see
//! `tests/properties.rs` for the scheme), so the suite needs no external
//! property-testing crate and every case replays from (stream, index).

use std::collections::HashSet;

use telegraphcq::common::rng::{derive_seed, seeded, TcqRng};
use telegraphcq::common::{BitSet, CmpOp, Expr, Value};
use telegraphcq::query::{lexer::lex, parse};

/// Run `body` for `cases` deterministic cases (same scheme as
/// `tests/properties.rs`).
fn check(stream: u64, cases: u64, mut body: impl FnMut(&mut TcqRng)) {
    for case in 0..cases {
        let mut rng = seeded(derive_seed(stream, case));
        body(&mut rng);
    }
}

/// A random string of length `0..max_len` drawn from `alphabet`.
fn rand_string(rng: &mut TcqRng, alphabet: &[char], max_len: usize) -> String {
    let len = rng.gen_range(0usize..max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0usize..alphabet.len())])
        .collect()
}

/// Printable ASCII plus a few multibyte and control characters, so the
/// lexer sees arbitrary unicode without needing a fuzzer.
fn wild_alphabet() -> Vec<char> {
    let mut a: Vec<char> = (' '..='~').collect();
    a.extend(['\n', '\t', '\u{0}', 'é', '→', '𝄞']);
    a
}

/// Random values over the full lattice (strings avoid quotes so the expr
/// roundtrip test can print them).
fn rand_value(rng: &mut TcqRng) -> Value {
    const STR_CHARS: &[char] = &['a', 'b', 'c', 'x', 'y', 'Z', '0', '7', '_', ' '];
    match rng.gen_range(0usize..5) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen()),
        2 => Value::Int(rng.gen_range(-1000i64..1000)),
        3 => Value::Float(rng.gen_range(-1000i64..1000) as f64 / 8.0),
        _ => Value::str(rand_string(rng, STR_CHARS, 13)),
    }
}

/// Random comparison operator.
fn rand_cmp(rng: &mut TcqRng) -> CmpOp {
    [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ][rng.gen_range(0usize..6)]
}

/// Random boolean expression tree over columns a/b/c, depth-bounded.
fn rand_expr(rng: &mut TcqRng, depth: usize) -> Expr {
    const NAME_CHARS: &[char] = &['d', 'e', 'f', 'g', 'h', 'k'];
    if depth == 0 || rng.gen_bool(0.4) {
        // Leaf: column vs int or string literal.
        if rng.gen_bool(0.6) {
            let col = ["a", "b", "c"][rng.gen_range(0usize..3)];
            Expr::col(col).cmp(rand_cmp(rng), Expr::lit(rng.gen_range(-100i64..100)))
        } else {
            let col = ["a", "b"][rng.gen_range(0usize..2)];
            let mut s = rand_string(rng, NAME_CHARS, 6);
            if s.is_empty() {
                s.push('x');
            }
            Expr::col(col).cmp(rand_cmp(rng), Expr::lit(s.as_str()))
        }
    } else {
        match rng.gen_range(0usize..3) {
            0 => rand_expr(rng, depth - 1).and(rand_expr(rng, depth - 1)),
            1 => rand_expr(rng, depth - 1).or(rand_expr(rng, depth - 1)),
            _ => Expr::Not(Box::new(rand_expr(rng, depth - 1))),
        }
    }
}

/// The lexer returns Ok or Err on arbitrary input — never panics.
#[test]
fn lexer_total_on_arbitrary_strings() {
    let alphabet = wild_alphabet();
    check(0xA1, 64, |rng| {
        let s = rand_string(rng, &alphabet, 200);
        let _ = lex(&s);
    });
}

/// The parser is total too (errors, never panics), including on
/// plausible-looking query fragments.
#[test]
fn parser_total_on_arbitrary_strings() {
    let printable: Vec<char> = (' '..='~').collect();
    check(0xA2, 64, |rng| {
        let s = rand_string(rng, &printable, 200);
        let _ = parse(&s);
    });
}

#[test]
fn parser_total_on_query_shaped_input() {
    let lower: Vec<char> = ('a'..='z').collect();
    let tail_alphabet: Vec<char> = {
        let mut a: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
        a.extend("<>=!(){};.,*+' -".chars());
        a
    };
    check(0xA3, 64, |rng| {
        let mut cols = rand_string(rng, &lower, 8);
        if cols.is_empty() {
            cols.push('c');
        }
        let tail = rand_string(rng, &tail_alphabet, 80);
        let _ = parse(&format!("SELECT {cols} FROM s WHERE {tail}"));
    });
}

/// Value::total_cmp is a lawful total order (antisymmetric, transitive,
/// total) across mixed types — sampled.
#[test]
fn value_total_order_laws() {
    use std::cmp::Ordering;
    check(0xA4, 64, |rng| {
        let (a, b, c) = (rand_value(rng), rand_value(rng), rand_value(rng));
        // totality + antisymmetry
        match a.total_cmp(&b) {
            Ordering::Less => assert_eq!(b.total_cmp(&a), Ordering::Greater),
            Ordering::Greater => assert_eq!(b.total_cmp(&a), Ordering::Less),
            Ordering::Equal => assert_eq!(b.total_cmp(&a), Ordering::Equal),
        }
        // transitivity (sampled)
        if a.total_cmp(&b) != Ordering::Greater && b.total_cmp(&c) != Ordering::Greater {
            assert_ne!(a.total_cmp(&c), Ordering::Greater);
        }
        // reflexivity
        assert_eq!(a.total_cmp(&a), Ordering::Equal);
    });
}

/// Eq/Hash consistency: equal values hash equal (the hash-join
/// invariant), across Int/Float mixing.
#[test]
fn value_eq_implies_hash_eq() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash = |v: &Value| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    check(0xA5, 64, |rng| {
        let (a, b) = (rand_value(rng), rand_value(rng));
        if a == b {
            assert_eq!(hash(&a), hash(&b));
        }
        // And trivially: every value hashes equal to itself.
        assert_eq!(hash(&a), hash(&a.clone()));
    });
}

/// BitSet agrees with a HashSet model under arbitrary op sequences.
#[test]
fn bitset_matches_hashset_model() {
    check(0xA6, 64, |rng| {
        let ops: Vec<(u32, usize)> = (0..rng.gen_range(0usize..200))
            .map(|_| (rng.gen_range(0u32..16), rng.gen_range(0usize..300)))
            .collect();
        let mut bs = BitSet::new();
        let mut model: HashSet<usize> = HashSet::new();
        for (op, i) in ops {
            match op {
                0..=6 => {
                    bs.insert(i);
                    model.insert(i);
                }
                7..=11 => {
                    bs.remove(i);
                    model.remove(&i);
                }
                12..=14 => assert_eq!(bs.contains(i), model.contains(&i)),
                _ => {
                    bs.clear();
                    model.clear();
                }
            }
            assert_eq!(bs.is_empty(), model.is_empty());
        }
        let got: Vec<usize> = bs.iter().collect();
        let mut want: Vec<usize> = model.into_iter().collect();
        want.sort_unstable();
        assert_eq!(got, want, "iteration is ascending and exact");
    });
}

/// decode(encode(t)) == t for random tuples through the one tuple codec
/// (wire, archive and checkpoint payloads); decoding random bytes is total
/// (errors, never panics).
#[test]
fn codec_roundtrip_and_fuzz() {
    use telegraphcq::common::{CkptReader, CkptWriter, DataType, Field, Schema, Timestamp, Tuple};
    check(0xA7, 64, |rng| {
        let vals: Vec<Value> = (0..rng.gen_range(1usize..8))
            .map(|_| rand_value(rng))
            .collect();
        let noise: Vec<u8> = (0..rng.gen_range(0usize..64))
            .map(|_| rng.gen::<u8>())
            .collect();
        let fields: Vec<Field> = (0..vals.len())
            .map(|i| Field::new(format!("c{i}"), DataType::Int))
            .collect();
        // Schema types are not enforced by Tuple::new (only arity), which
        // is exactly what the codec relies on.
        let schema = Schema::new(fields).into_ref();
        let t = Tuple::new(schema.clone(), vals, Timestamp::logical(7)).unwrap();
        let mut w = CkptWriter::new();
        w.put_tuple(&t);
        let buf = w.into_bytes();
        let mut r = CkptReader::new(&buf);
        assert_eq!(r.get_tuple(&schema).unwrap(), t);
        assert!(r.is_empty());
        // Fuzz: arbitrary bytes must not panic.
        let _ = CkptReader::new(&noise).get_tuple(&schema);
    });
}

/// Parse(print(expr)) == expr: `Display` fully parenthesizes, so the
/// parser must reconstruct the exact tree.
#[test]
fn expr_print_parse_roundtrip() {
    check(0xA8, 64, |rng| {
        let e = rand_expr(rng, 3);
        let sql = format!("SELECT * FROM s WHERE {e}");
        let stmt = parse(&sql).unwrap();
        assert_eq!(stmt.where_clause.as_ref(), Some(&e));
    });
}
