//! Wire format of the peer-replication protocol: the [`PeerDelta`] message
//! replicas exchange, the [`Stamp`] a conflict register remembers about the
//! last winning writer, and the encoded forms the engine persists through
//! the warehouse WAL (`Published` bodies, `Remote` metadata, and the
//! engine's checkpoint snapshot).
//!
//! Everything rides the workspace codec ([`Enc`]/[`Dec`]) plus the
//! relational value encoders, so peer messages share byte-level conventions
//! with the WAL and the wrapper transport.

use dyno_durable::codec::{dec_seq, enc_seq, Dec, Enc, WireError};
use dyno_relational::wire::{dec_bag, dec_value, enc_bag, enc_value};
use dyno_relational::{Value, ZSet};

/// The causal identity of a register's last winning write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamp {
    /// The writer's hybrid-logical-clock timestamp (total order;
    /// last-writer-wins tiebreaker).
    pub hlc: u64,
    /// The writing replica (breaks exact HLC ties deterministically).
    pub origin: u16,
    /// The writer's vector clock at publish time (causal order).
    pub vc: Vec<u64>,
}

impl Stamp {
    /// Orders two stamps for last-writer-wins: HLC first, origin breaks
    /// exact ties. Total and antisymmetric for distinct `(hlc, origin)`.
    pub fn wins_over(&self, other: &Stamp) -> bool {
        (self.hlc, self.origin) > (other.hlc, other.origin)
    }
}

/// One replicated view change: the full post-image of `key`'s rows in
/// `view`, stamped with the publisher's causal clocks. Post-image (not
/// delta) replication is what makes conflict resolution a per-key
/// last-writer-wins register: applying the winner *replaces* the key's rows,
/// so losers leave no residue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerDelta {
    /// Publishing replica.
    pub origin: u16,
    /// Per-link sequence number (contiguous per `origin → receiver` link;
    /// the receiver's reorder buffer releases in order and NACKs gaps).
    pub seq: u64,
    /// Target view slot (replicas register identical view sets).
    pub view: u32,
    /// Column of the view's key attribute.
    pub key_col: u32,
    /// The key whose rows this message replaces.
    pub key: Value,
    /// The key's complete new rows (empty = the key vanished).
    pub post: ZSet,
    /// Publisher HLC at publish.
    pub hlc: u64,
    /// Publisher vector clock at publish.
    pub vc: Vec<u64>,
    /// Causal ids of the source updates folded into this post-image
    /// (lineage: `repl.send` → `repl.recv` → `repl.apply`/`superseded`).
    pub ids: Vec<u64>,
}

impl PeerDelta {
    /// The message's causal stamp.
    pub fn stamp(&self) -> Stamp {
        Stamp { hlc: self.hlc, origin: self.origin, vc: self.vc.clone() }
    }
}

/// Encodes a stamp.
pub fn enc_stamp(e: &mut Enc, s: &Stamp) {
    e.u64(s.hlc);
    e.u32(s.origin as u32);
    enc_seq(e, &s.vc, |e, &c| e.u64(c));
}

/// Decodes a stamp.
pub fn dec_stamp(d: &mut Dec<'_>) -> Result<Stamp, WireError> {
    let hlc = d.u64()?;
    let origin = d.u32()? as u16;
    let vc = dec_seq(d, |d| d.u64())?;
    Ok(Stamp { hlc, origin, vc })
}

/// Encodes one peer message body.
pub fn enc_peer_delta(e: &mut Enc, m: &PeerDelta) {
    e.u32(m.origin as u32);
    e.u64(m.seq);
    e.u32(m.view);
    e.u32(m.key_col);
    enc_value(e, &m.key);
    enc_bag(e, &m.post);
    e.u64(m.hlc);
    enc_seq(e, &m.vc, |e, &c| e.u64(c));
    enc_seq(e, &m.ids, |e, &id| e.u64(id));
}

/// Decodes one peer message body.
pub fn dec_peer_delta(d: &mut Dec<'_>) -> Result<PeerDelta, WireError> {
    Ok(PeerDelta {
        origin: d.u32()? as u16,
        seq: d.u64()?,
        view: d.u32()?,
        key_col: d.u32()?,
        key: dec_value(d)?,
        post: dec_bag(d)?,
        hlc: d.u64()?,
        vc: dec_seq(d, |d| d.u64())?,
        ids: dec_seq(d, |d| d.u64())?,
    })
}

/// Encodes a standalone message (its own length-delimited buffer).
pub fn enc_msg(m: &PeerDelta) -> Vec<u8> {
    let mut e = Enc::new();
    enc_peer_delta(&mut e, m);
    e.finish()
}

/// Decodes a standalone message.
pub fn dec_msg(bytes: &[u8]) -> Result<PeerDelta, WireError> {
    let mut d = Dec::new(bytes);
    dec_peer_delta(&mut d)
}

/// The durable body of one `Published` WAL record: the committed batch's
/// causal keys plus every peer copy `(peer, message)` the engine is about
/// to hand to the network. Logged **before** the send, so a crash between
/// the log write and the send re-sends these exact bytes instead of
/// reusing sequence numbers for different content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedRecord {
    /// Causal ids of the published commit (pairs with the preceding
    /// `Applied` record during recovery).
    pub keys: Vec<u64>,
    /// Every outgoing copy: receiving peer and the full message.
    pub msgs: Vec<(u16, PeerDelta)>,
}

/// Encodes a `Published` record body.
pub fn enc_published(r: &PublishedRecord) -> Vec<u8> {
    let mut e = Enc::new();
    enc_seq(&mut e, &r.keys, |e, &k| e.u64(k));
    enc_seq(&mut e, &r.msgs, |e, (peer, m)| {
        e.u32(*peer as u32);
        enc_peer_delta(e, m);
    });
    e.finish()
}

/// Decodes a `Published` record body.
pub fn dec_published(bytes: &[u8]) -> Result<PublishedRecord, WireError> {
    let mut d = Dec::new(bytes);
    let keys = dec_seq(&mut d, |d| d.u64())?;
    let msgs = dec_seq(&mut d, |d| {
        let peer = d.u32()? as u16;
        let m = dec_peer_delta(d)?;
        Ok((peer, m))
    })?;
    Ok(PublishedRecord { keys, msgs })
}

/// The durable metadata of one `Remote` WAL record: where the resolved
/// message came from (so delivery floors recover) and the stamp that won or
/// lost (so conflict registers recover).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteMeta {
    /// Publishing replica.
    pub origin: u16,
    /// Per-link sequence of the resolved message.
    pub seq: u64,
    /// The message's stamp (the new register value when applied).
    pub stamp: Stamp,
}

/// Encodes a `Remote` record's metadata.
pub fn enc_remote_meta(m: &RemoteMeta) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(m.origin as u32);
    e.u64(m.seq);
    enc_stamp(&mut e, &m.stamp);
    e.finish()
}

/// Decodes a `Remote` record's metadata.
pub fn dec_remote_meta(bytes: &[u8]) -> Result<RemoteMeta, WireError> {
    let mut d = Dec::new(bytes);
    let origin = d.u32()? as u16;
    let seq = d.u64()?;
    let stamp = dec_stamp(&mut d)?;
    Ok(RemoteMeta { origin, seq, stamp })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::Tuple;

    fn sample_msg() -> PeerDelta {
        let mut post = ZSet::new();
        post.add(Tuple::of([Value::from(7i64), Value::str("x")]), 1);
        PeerDelta {
            origin: 2,
            seq: 41,
            view: 1,
            key_col: 0,
            key: Value::from(7i64),
            post,
            hlc: 9_000_123,
            vc: vec![3, 0, 5],
            ids: vec![17, 18],
        }
    }

    #[test]
    fn peer_delta_roundtrips() {
        let m = sample_msg();
        assert_eq!(dec_msg(&enc_msg(&m)).unwrap(), m);
    }

    #[test]
    fn published_record_roundtrips() {
        let r = PublishedRecord {
            keys: vec![17, 18],
            msgs: vec![(0, sample_msg()), (1, sample_msg())],
        };
        assert_eq!(dec_published(&enc_published(&r)).unwrap(), r);
    }

    #[test]
    fn remote_meta_roundtrips() {
        let m =
            RemoteMeta { origin: 1, seq: 6, stamp: Stamp { hlc: 55, origin: 1, vc: vec![0, 6] } };
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
