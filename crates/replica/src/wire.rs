//! Wire format of the peer-replication protocol: the [`PeerDelta`] message
//! replicas exchange, the [`Stamp`] a conflict register remembers about the
//! last winning writer, and the bodies of the two engine records the
//! warehouse WAL carries opaquely (`Published`, `Remote`).
//!
//! Everything rides the workspace codec ([`Enc`]/[`Dec`]) plus the
//! relational value encoders, so peer messages share byte-level conventions
//! with the WAL and the wrapper transport.

use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_relational::wire::{dec_tuple, dec_value, enc_tuple, enc_value};
use dyno_relational::{Tuple, Value};

/// The causal identity of a register's last winning write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Stamp {
    /// The writer's hybrid-logical-clock timestamp (total order;
    /// last-writer-wins tiebreaker).
    pub(crate) hlc: u64,
    /// The writing replica (breaks exact HLC ties deterministically).
    pub(crate) origin: u16,
    /// The writer's vector clock at publish time (causal order).
    pub(crate) vc: Vec<u64>,
}

impl Stamp {
    /// Orders two stamps for last-writer-wins: HLC first, origin breaks
    /// exact ties. Total and antisymmetric for distinct `(hlc, origin)`.
    pub(crate) fn wins_over(&self, other: &Stamp) -> bool {
        (self.hlc, self.origin) > (other.hlc, other.origin)
    }
}

/// One replicated client write: `row` replaces the rows of `relation` whose
/// key (first attribute) is the row's own, stamped with the publisher's
/// causal clocks. A keyed upsert is absolute, so resolving concurrent
/// writes is a per-`(relation, key)` last-writer-wins register: the winner
/// replaces the key's row and losers leave no residue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeerDelta {
    /// Publishing replica.
    pub(crate) origin: u16,
    /// Per-link sequence number (contiguous per `origin → receiver` link;
    /// the receiver's reorder buffer releases in order and NACKs gaps).
    pub(crate) seq: u64,
    /// The written source relation.
    pub(crate) relation: String,
    /// The key's new row; its first attribute is the key.
    pub(crate) row: Tuple,
    /// Publisher HLC at publish.
    pub(crate) hlc: u64,
    /// Publisher vector clock at publish.
    pub(crate) vc: Vec<u64>,
}

impl PeerDelta {
    /// The message's causal stamp.
    pub(crate) fn stamp(&self) -> Stamp {
        Stamp { hlc: self.hlc, origin: self.origin, vc: self.vc.clone() }
    }

    /// The conflict register the write targets: `(relation, key)`.
    pub(crate) fn register(&self) -> (String, Value) {
        (self.relation.clone(), self.row.get(0).clone())
    }
}

/// Encodes a stamp.
pub(crate) fn enc_stamp(e: &mut Enc, s: &Stamp) {
    e.u64(s.hlc);
    e.u32(s.origin as u32);
    enc_seq(e, &s.vc, |e, &c| e.u64(c));
}

/// Decodes a stamp.
pub(crate) fn dec_stamp(d: &mut Dec<'_>) -> Result<Stamp, WireError> {
    let hlc = d.u64()?;
    let origin = d.u32()? as u16;
    let vc = dec_seq(d, |d| d.u64())?;
    Ok(Stamp { hlc, origin, vc })
}

/// Encodes one peer message body.
pub(crate) fn enc_peer_delta(e: &mut Enc, m: &PeerDelta) {
    e.u32(m.origin as u32);
    e.u64(m.seq);
    e.str(&m.relation);
    enc_tuple(e, &m.row);
    e.u64(m.hlc);
    enc_seq(e, &m.vc, |e, &c| e.u64(c));
}

/// Decodes one peer message body. A row without a key is corrupt.
pub(crate) fn dec_peer_delta(d: &mut Dec<'_>) -> Result<PeerDelta, WireError> {
    let (origin, seq, relation) = (d.u32()? as u16, d.u64()?, d.str()?);
    let row = dec_tuple(d)?;
    if row.values().is_empty() {
        return Err(WireError::Invalid("peer write without a key".into()));
    }
    Ok(PeerDelta { origin, seq, relation, row, hlc: d.u64()?, vc: dec_seq(d, |d| d.u64())? })
}

/// Encodes a standalone message (its own length-delimited buffer).
pub(crate) fn enc_msg(m: &PeerDelta) -> Vec<u8> {
    let mut e = Enc::new();
    enc_peer_delta(&mut e, m);
    e.finish()
}

/// Decodes a standalone message.
pub(crate) fn dec_msg(bytes: &[u8]) -> Result<PeerDelta, WireError> {
    let mut d = Dec::new(bytes);
    dec_peer_delta(&mut d)
}

/// The durable body of one `Published` WAL record: every peer copy
/// `(peer, message)` of one client write the engine is about to hand to the
/// network. Logged **before** the send, so a crash between the log write
/// and the send re-sends these exact bytes instead of reusing sequence
/// numbers for different content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PublishedRecord {
    /// Every outgoing copy: receiving peer and the full message.
    pub(crate) msgs: Vec<(u16, PeerDelta)>,
}

/// Encodes a `Published` record body.
pub(crate) fn enc_published(r: &PublishedRecord) -> Vec<u8> {
    let mut e = Enc::new();
    enc_seq(&mut e, &r.msgs, |e, (peer, m)| {
        e.u32(*peer as u32);
        enc_peer_delta(e, m);
    });
    e.finish()
}

/// Decodes a `Published` record body.
pub(crate) fn dec_published(bytes: &[u8]) -> Result<PublishedRecord, WireError> {
    let mut d = Dec::new(bytes);
    let msgs = dec_seq(&mut d, |d| {
        let peer = d.u32()? as u16;
        let m = dec_peer_delta(d)?;
        Ok((peer, m))
    })?;
    Ok(PublishedRecord { msgs })
}

/// The durable body of one `Remote` WAL record: a resolved message's origin
/// and sequence (so delivery floors recover), its register and stamp, and
/// whether it won (so conflict registers recover). The row itself is not
/// logged: a winner is committed to the peer's own sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RemoteMeta {
    /// Publishing replica.
    pub(crate) origin: u16,
    /// Per-link sequence of the resolved message.
    pub(crate) seq: u64,
    /// The written relation.
    pub(crate) relation: String,
    /// The written key.
    pub(crate) key: Value,
    /// The message's stamp (the new register value when applied).
    pub(crate) stamp: Stamp,
    /// True iff the message won resolution.
    pub(crate) applied: bool,
}

/// Encodes a `Remote` record body.
pub(crate) fn enc_remote_meta(m: &RemoteMeta) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(m.origin as u32);
    e.u64(m.seq);
    e.str(&m.relation);
    enc_value(&mut e, &m.key);
    enc_stamp(&mut e, &m.stamp);
    e.bool(m.applied);
    e.finish()
}

/// Decodes a `Remote` record body.
pub(crate) fn dec_remote_meta(bytes: &[u8]) -> Result<RemoteMeta, WireError> {
    let mut d = Dec::new(bytes);
    Ok(RemoteMeta {
        origin: d.u32()? as u16,
        seq: d.u64()?,
        relation: d.str()?,
        key: dec_value(&mut d)?,
        stamp: dec_stamp(&mut d)?,
        applied: d.bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_msg() -> PeerDelta {
        PeerDelta {
            origin: 2,
            seq: 41,
            relation: "R1".into(),
            row: Tuple::of([Value::from(7i64), Value::str("x")]),
            hlc: 9_000_123,
            vc: vec![3, 0, 5],
        }
    }

    #[test]
    fn peer_delta_roundtrips() {
        let m = sample_msg();
        assert_eq!(dec_msg(&enc_msg(&m)).unwrap(), m);
        assert_eq!(m.register(), ("R1".to_string(), Value::from(7i64)), "keyed on the row");
        let keyless = PeerDelta { row: Tuple::new(Vec::new()), ..m };
        assert!(dec_msg(&enc_msg(&keyless)).is_err(), "a row without a key is corrupt");
    }

    #[test]
    fn published_record_roundtrips() {
        let r = PublishedRecord { msgs: vec![(0, sample_msg()), (1, sample_msg())] };
        assert_eq!(dec_published(&enc_published(&r)).unwrap(), r);
    }

    #[test]
    fn remote_meta_roundtrips() {
        let m = RemoteMeta {
            origin: 1,
            seq: 6,
            relation: "R0".into(),
            key: Value::from(5i64),
            stamp: Stamp { hlc: 55, origin: 1, vc: vec![0, 6] },
            applied: true,
        };
        assert_eq!(dec_remote_meta(&enc_remote_meta(&m)).unwrap(), m);
    }

    #[test]
    fn wins_over_is_total_on_distinct_writers() {
        let a = Stamp { hlc: 10, origin: 0, vc: vec![] };
        let b = Stamp { hlc: 10, origin: 1, vc: vec![] };
        assert!(b.wins_over(&a) && !a.wins_over(&b), "origin breaks exact HLC ties");
        let c = Stamp { hlc: 11, origin: 0, vc: vec![] };
        assert!(c.wins_over(&b), "a later HLC beats a higher origin");
    }
}
