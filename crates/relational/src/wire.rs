//! Binary (de)serialization of the relational model for the warehouse WAL.
//!
//! Every encoder here is paired with a decoder that rebuilds the value
//! through the type's *validating* constructor (`Schema::new`,
//! `Delta::from_rows`, `Relation::apply`), so corrupt-but-CRC-valid bytes
//! can still be rejected as [`WireError::Invalid`] instead of materializing
//! an impossible relation. Floats travel as raw IEEE-754 bits via
//! [`F64::new`], which re-normalizes on the way in (`-0.0 → 0.0` etc.), so
//! a value round trips to exactly the representation the engine would have
//! produced itself — the crash oracle's bit-identity check depends on this.

use crate::ddl::SchemaChange;
use crate::relation::{Delta, Relation};
use crate::schema::{AttrType, Attribute, Schema};
use crate::tuple::{Tuple, ZSet};
use crate::update::{DataUpdate, SourceUpdate};
use crate::value::{Value, F64};
use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};

/// Encode a [`Value`] (one tag byte + payload).
pub fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Null => e.u8(0),
        Value::Bool(b) => {
            e.u8(1);
            e.bool(*b);
        }
        Value::Int(i) => {
            e.u8(2);
            e.i64(*i);
        }
        Value::Float(f) => {
            e.u8(3);
            e.f64_bits(f.get());
        }
        Value::Str(s) => {
            e.u8(4);
            e.str(s);
        }
    }
}

/// Decode a [`Value`].
pub fn dec_value(d: &mut Dec<'_>) -> Result<Value, WireError> {
    Ok(match d.u8()? {
        0 => Value::Null,
        1 => Value::Bool(d.bool()?),
        2 => Value::Int(d.i64()?),
        3 => Value::Float(F64::new(d.f64_bits()?)),
        4 => Value::str(d.str()?),
        t => return Err(WireError::Invalid(format!("value tag {t}"))),
    })
}

/// Encode a [`Tuple`] as a value sequence.
pub fn enc_tuple(e: &mut Enc, t: &Tuple) {
    enc_seq(e, t.values(), enc_value);
}

/// Decode a [`Tuple`].
pub fn dec_tuple(d: &mut Dec<'_>) -> Result<Tuple, WireError> {
    Ok(Tuple::new(dec_seq(d, dec_value)?))
}

/// Encode a [`ZSet`] deterministically: entries in tuple order
/// ([`ZSet::sorted`]), so two equal bags always produce identical bytes
/// however their tables were built. WAL records, checkpoints, the replica
/// wire and extent CRCs all encode through here.
pub fn enc_bag(e: &mut Enc, bag: &ZSet) {
    e.u32(bag.distinct_len() as u32);
    for (t, n) in bag.sorted() {
        enc_tuple(e, t);
        e.i64(n);
    }
}

/// Decode a [`ZSet`].
pub fn dec_bag(d: &mut Dec<'_>) -> Result<ZSet, WireError> {
    let entries = dec_seq(d, |d| {
        let t = dec_tuple(d)?;
        let n = d.i64()?;
        Ok((t, n))
    })?;
    Ok(entries.into_iter().collect())
}

/// Encode an [`AttrType`] tag.
pub fn enc_attr_type(e: &mut Enc, ty: AttrType) {
    e.u8(match ty {
        AttrType::Int => 0,
        AttrType::Float => 1,
        AttrType::Str => 2,
        AttrType::Bool => 3,
    });
}

/// Decode an [`AttrType`].
pub fn dec_attr_type(d: &mut Dec<'_>) -> Result<AttrType, WireError> {
    Ok(match d.u8()? {
        0 => AttrType::Int,
        1 => AttrType::Float,
        2 => AttrType::Str,
        3 => AttrType::Bool,
        t => return Err(WireError::Invalid(format!("attr type tag {t}"))),
    })
}

/// Encode an [`Attribute`].
pub fn enc_attribute(e: &mut Enc, a: &Attribute) {
    e.str(&a.name);
    enc_attr_type(e, a.ty);
}

/// Decode an [`Attribute`].
pub fn dec_attribute(d: &mut Dec<'_>) -> Result<Attribute, WireError> {
    let name = d.str()?;
    let ty = dec_attr_type(d)?;
    Ok(Attribute::new(name, ty))
}

/// Encode a [`Schema`].
pub fn enc_schema(e: &mut Enc, s: &Schema) {
    e.str(&s.relation);
    enc_seq(e, s.attrs(), enc_attribute);
}

/// Decode a [`Schema`] through its validating constructor.
pub fn dec_schema(d: &mut Dec<'_>) -> Result<Schema, WireError> {
    let relation = d.str()?;
    let attrs = dec_seq(d, dec_attribute)?;
    Schema::new(relation, attrs).map_err(|err| WireError::Invalid(format!("schema: {err}")))
}

/// Encode a [`Delta`] (schema + signed rows).
pub fn enc_delta(e: &mut Enc, delta: &Delta) {
    enc_schema(e, delta.schema());
    enc_bag(e, delta.rows());
}

/// Decode a [`Delta`]; rows are re-validated against the schema.
pub fn dec_delta(d: &mut Dec<'_>) -> Result<Delta, WireError> {
    let schema = dec_schema(d)?;
    let rows = dec_bag(d)?;
    Delta::from_bag(schema, rows).map_err(|err| WireError::Invalid(format!("delta: {err}")))
}

/// Encode a [`Relation`] (schema + extent).
pub fn enc_relation(e: &mut Enc, r: &Relation) {
    enc_schema(e, r.schema());
    enc_bag(e, r.rows());
}

/// Decode a [`Relation`], rebuilding it by applying the extent as a delta so
/// tuple arity/type checks run.
pub fn dec_relation(d: &mut Dec<'_>) -> Result<Relation, WireError> {
    let schema = dec_schema(d)?;
    let rows = dec_bag(d)?;
    let delta = Delta::from_bag(schema.clone(), rows)
        .map_err(|err| WireError::Invalid(format!("relation rows: {err}")))?;
    let mut rel = Relation::empty(schema);
    rel.apply(&delta).map_err(|err| WireError::Invalid(format!("relation extent: {err}")))?;
    Ok(rel)
}

/// Encode a [`SchemaChange`] (one tag byte per variant).
pub fn enc_schema_change(e: &mut Enc, sc: &SchemaChange) {
    match sc {
        SchemaChange::RenameRelation { from, to } => {
            e.u8(0);
            e.str(from);
            e.str(to);
        }
        SchemaChange::RenameAttribute { relation, from, to } => {
            e.u8(1);
            e.str(relation);
            e.str(from);
            e.str(to);
        }
        SchemaChange::AddAttribute { relation, attr, default } => {
            e.u8(2);
            e.str(relation);
            enc_attribute(e, attr);
            enc_value(e, default);
        }
        SchemaChange::DropAttribute { relation, attr } => {
            e.u8(3);
            e.str(relation);
            e.str(attr);
        }
        SchemaChange::DropRelation { relation } => {
            e.u8(4);
            e.str(relation);
        }
        SchemaChange::CreateRelation { schema } => {
            e.u8(5);
            enc_schema(e, schema);
        }
        SchemaChange::ReplaceRelations { dropped, replacement } => {
            e.u8(6);
            enc_seq(e, dropped, |e, s| e.str(s));
            enc_relation(e, replacement);
        }
    }
}

/// Decode a [`SchemaChange`].
pub fn dec_schema_change(d: &mut Dec<'_>) -> Result<SchemaChange, WireError> {
    Ok(match d.u8()? {
        0 => SchemaChange::RenameRelation { from: d.str()?, to: d.str()? },
        1 => SchemaChange::RenameAttribute { relation: d.str()?, from: d.str()?, to: d.str()? },
        2 => SchemaChange::AddAttribute {
            relation: d.str()?,
            attr: dec_attribute(d)?,
            default: dec_value(d)?,
        },
        3 => SchemaChange::DropAttribute { relation: d.str()?, attr: d.str()? },
        4 => SchemaChange::DropRelation { relation: d.str()? },
        5 => SchemaChange::CreateRelation { schema: dec_schema(d)? },
        6 => SchemaChange::ReplaceRelations {
            dropped: dec_seq(d, |d| d.str())?,
            replacement: Box::new(dec_relation(d)?),
        },
        t => return Err(WireError::Invalid(format!("schema change tag {t}"))),
    })
}

/// Encode a [`DataUpdate`]. The relation name is written explicitly even
/// though `DataUpdate::new` copies it from the delta's schema — the two can
/// legally diverge after renames compose over a queued update.
pub fn enc_data_update(e: &mut Enc, du: &DataUpdate) {
    e.str(&du.relation);
    enc_delta(e, &du.delta);
}

/// Decode a [`DataUpdate`].
pub fn dec_data_update(d: &mut Dec<'_>) -> Result<DataUpdate, WireError> {
    let relation = d.str()?;
    let delta = dec_delta(d)?;
    let mut du = DataUpdate::new(delta);
    du.relation = relation;
    Ok(du)
}

/// Encode a [`SourceUpdate`].
pub fn enc_source_update(e: &mut Enc, su: &SourceUpdate) {
    match su {
        SourceUpdate::Data(du) => {
            e.u8(0);
            enc_data_update(e, du);
        }
        SourceUpdate::Schema(sc) => {
            e.u8(1);
            enc_schema_change(e, sc);
        }
    }
}

/// Decode a [`SourceUpdate`].
pub fn dec_source_update(d: &mut Dec<'_>) -> Result<SourceUpdate, WireError> {
    Ok(match d.u8()? {
        0 => SourceUpdate::Data(dec_data_update(d)?),
        1 => SourceUpdate::Schema(dec_schema_change(d)?),
        t => return Err(WireError::Invalid(format!("source update tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T, EncFn, DecFn>(value: &T, enc: EncFn, dec: DecFn) -> T
    where
        EncFn: Fn(&mut Enc, &T),
        DecFn: Fn(&mut Dec<'_>) -> Result<T, WireError>,
    {
        let mut e = Enc::new();
        enc(&mut e, value);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        let out = dec(&mut d).expect("decode");
        assert!(d.is_done(), "decoder must consume every byte");
        out
    }

    fn sample_schema() -> Schema {
        Schema::of("item", &[("k", AttrType::Int), ("name", AttrType::Str), ("w", AttrType::Float)])
    }

    #[test]
    fn values_round_trip_bit_identically() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::float(3.5),
            Value::float(-0.0), // normalizes to 0.0 both before and after
            Value::str(""),
            Value::str("ünïcode"),
        ] {
            assert_eq!(round_trip(&v, enc_value, dec_value), v);
        }
    }

    #[test]
    fn bag_round_trips_including_negative_counts() {
        let mut bag = ZSet::new();
        bag.add(Tuple::of([1i64, 2]), 3);
        bag.add(Tuple::of([9i64, 9]), -2);
        assert_eq!(round_trip(&bag, enc_bag, dec_bag), bag);
    }

    #[test]
    fn schema_delta_relation_round_trip() {
        let schema = sample_schema();
        assert_eq!(round_trip(&schema, enc_schema, dec_schema), schema);

        let delta = Delta::from_rows(
            schema.clone(),
            vec![
                (Tuple::new(vec![Value::Int(1), Value::str("a"), Value::float(1.5)]), 1),
                (Tuple::new(vec![Value::Int(2), Value::str("b"), Value::Null]), -1),
            ],
        )
        .unwrap();
        assert_eq!(round_trip(&delta, enc_delta, dec_delta), delta);

        let rel = Relation::from_tuples(
            schema,
            vec![Tuple::new(vec![Value::Int(7), Value::str("x"), Value::float(0.25)])],
        )
        .unwrap();
        assert_eq!(round_trip(&rel, enc_relation, dec_relation), rel);
    }

    #[test]
    fn every_schema_change_variant_round_trips() {
        let changes = vec![
            SchemaChange::RenameRelation { from: "a".into(), to: "b".into() },
            SchemaChange::RenameAttribute {
                relation: "a".into(),
                from: "x".into(),
                to: "y".into(),
            },
            SchemaChange::AddAttribute {
                relation: "a".into(),
                attr: Attribute::new("z", AttrType::Bool),
                default: Value::Bool(false),
            },
            SchemaChange::DropAttribute { relation: "a".into(), attr: "x".into() },
            SchemaChange::DropRelation { relation: "a".into() },
            SchemaChange::CreateRelation { schema: sample_schema() },
            SchemaChange::ReplaceRelations {
                dropped: vec!["a".into(), "b".into()],
                replacement: Box::new(Relation::empty(sample_schema())),
            },
        ];
        for sc in changes {
            assert_eq!(round_trip(&sc, enc_schema_change, dec_schema_change), sc);
            let su = SourceUpdate::Schema(sc);
            assert_eq!(round_trip(&su, enc_source_update, dec_source_update), su);
        }
    }

    #[test]
    fn data_update_preserves_diverged_relation_name() {
        let delta = Delta::empty(sample_schema());
        let mut du = DataUpdate::new(delta);
        du.relation = "renamed_item".into(); // diverged after a composed rename
        let back = round_trip(&du, enc_data_update, dec_data_update);
        assert_eq!(back.relation, "renamed_item");
        let su = SourceUpdate::Data(du);
        assert_eq!(round_trip(&su, enc_source_update, dec_source_update), su);
    }

    #[test]
    fn corrupt_tags_are_rejected() {
        let mut d = Dec::new(&[200]);
        assert!(matches!(dec_value(&mut d), Err(WireError::Invalid(_))));
        let mut d = Dec::new(&[77]);
        assert!(matches!(dec_schema_change(&mut d), Err(WireError::Invalid(_))));
    }

    #[test]
    fn duplicate_attribute_schema_is_rejected_on_decode() {
        // Hand-craft bytes for a schema with two attributes named "k":
        // structurally valid, semantically impossible.
        let mut e = Enc::new();
        e.str("bad");
        e.u32(2);
        enc_attribute(&mut e, &Attribute::new("k", AttrType::Int));
        enc_attribute(&mut e, &Attribute::new("k", AttrType::Str));
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(matches!(dec_schema(&mut d), Err(WireError::Invalid(_))));
    }
}
