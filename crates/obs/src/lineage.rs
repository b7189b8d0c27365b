//! Per-update provenance: causal ids, batch ids, the stage vocabulary, and
//! [`explain`].
//!
//! Every source update (DU or SC) is assigned a **causal id** at source
//! commit — the `UpdateId` the wrapper stamps on its message, globally
//! unique and stable across every layer (transport, ingress, UMQ, WAL).
//! Instrumented code records provenance against that id as the update
//! moves through the stack: committed, dropped/duplicated/replayed by the
//! transport, admitted to the UMQ, found in an unsafe dependency, merged
//! into a cyclic batch, named in an Intent record, parked, applied, and
//! finally reflected in a view-extent delta.
//!
//! A provenance record is a [`Record`] of kind [`RecordKind::Prov`] — its
//! `name` is the [`stage`], its `id` the causal id — kept in the
//! collector's one ring beside spans and events ([`crate::trace`]). It is
//! captured only while the collector captures
//! [`Capture::PROV`](crate::Capture::PROV), and is a **true no-op**
//! otherwise — no allocation, no field copy, no clock read (see
//! [`Collector::prov`](crate::Collector::prov)).
//!
//! ## Batch ids
//!
//! Cyclic-group merges and atomic Applied records concern a *set* of causal
//! ids. Those get a synthetic id in a disjoint namespace — the high bit set
//! ([`BATCH_BIT`]) plus a sequence number. The only producer of batch ids,
//! [`Collector::prov_batch`](crate::Collector::prov_batch), writes exactly
//! one record per batch and lists every member in it as a `member` field,
//! so a batch's membership is read from the batch's own record
//! ([`Record::causal_ids`]) and nothing else remembers it.

use crate::trace::{Record, RecordKind};

/// High bit marking a synthetic batch id; real causal ids come from
/// source-commit sequence numbers and never reach this range.
pub const BATCH_BIT: u64 = 1 << 63;

/// Canonical stage names, so producers and the forensics analyzer agree.
pub mod stage {
    /// The update committed at its source (the causal id is born here).
    pub const COMMIT: &str = "commit";
    /// The transport dropped the message (recoverable only by NACK).
    pub const XPORT_DROP: &str = "xport.drop";
    /// The transport duplicated the delivery.
    pub const XPORT_DUP: &str = "xport.dup";
    /// The transport delayed the delivery.
    pub const XPORT_DELAY: &str = "xport.delay";
    /// The delivery batch containing this update was shuffled.
    pub const XPORT_REORDER: &str = "xport.reorder";
    /// Redelivered in response to a NACK (gap refetch).
    pub const XPORT_NACK: &str = "xport.nack";
    /// Retransmitted from the wrapper send log after a warehouse restart.
    pub const XPORT_REPLAY: &str = "xport.replay";
    /// A redundant copy was dropped at the UMQ ingress gate.
    pub const INGRESS_DUP: &str = "ingress.dup";
    /// Released out of the ingress reorder buffer (predecessor arrived).
    pub const INGRESS_RESEQ: &str = "ingress.reseq";
    /// Admitted to the UMQ (enqueued for maintenance).
    pub const ADMIT: &str = "admit";
    /// Rejected at a full bounded UMQ (terminal: the update is never
    /// reflected; fields: `source`, `version`, `depth`).
    pub const SHED: &str = "shed";
    /// Found on an unsafe dependency edge (fields: `with`, `class`, `kind`).
    pub const CONFLICT: &str = "conflict";
    /// Merged into a cyclic-group batch (batch record lists the members).
    pub const MERGE: &str = "merge";
    /// The queue was reordered into a legal schedule around this update.
    pub const REORDER: &str = "reorder";
    /// Named in a maintenance Intent (queries are about to run).
    pub const INTENT: &str = "intent";
    /// A SWEEP compensation pass ran for this update (field: `pending`).
    pub const SWEEP: &str = "sweep";
    /// Maintenance parked on an unavailable source; the next `intent`
    /// record for the same id marks the unpark/retry.
    pub const PARK: &str = "park";
    /// Maintenance applied the update to the view (terminal, exactly once).
    pub const APPLIED: &str = "applied";
    /// The committed view-extent delta for the batch (fields: `rows`).
    pub const EXTENT: &str = "extent";
    /// A client source write was published to a peer replica (fields:
    /// `peer`, `seq`, `relation`).
    pub const REPL_SEND: &str = "repl.send";
    /// A peer replica's write was received in causal order (fields:
    /// `origin`, `seq`, `relation`).
    pub const REPL_RECV: &str = "repl.recv";
    /// A received peer write won resolution and goes to the local sources
    /// (terminal for the remote path, exactly once per receiving replica;
    /// fields: `origin`, `lag_us`).
    pub const REPL_APPLY: &str = "repl.apply";
    /// A received peer write lost last-writer-wins conflict resolution and
    /// was discarded without being applied (terminal, exactly once per
    /// receiving replica, mutually exclusive with `repl.apply`; fields:
    /// `origin`, `kind` = "rd").
    pub const SUPERSEDED: &str = "superseded";
}

/// The lineage of `id` among the provenance records of `records`, oldest
/// first. For a causal id: its own records plus the record of every batch
/// that lists it as a member. For a batch id: the batch's record plus every
/// record of every member that record lists.
///
/// The answer depends only on records still in the ring. A batch record
/// survives exactly as long as its batch can be explained: once it is
/// evicted, a member's lineage simply no longer shows that batch, and a
/// query for the batch id itself finds nothing — no other record names the
/// batch's members.
pub fn explain<'a>(records: impl Iterator<Item = &'a Record> + Clone, id: u64) -> Vec<Record> {
    let prov = records.filter(|r| r.kind == RecordKind::Prov);
    if id & BATCH_BIT == 0 {
        return prov.filter(|r| r.causal_ids().any(|m| m == id)).cloned().collect();
    }
    let members: Vec<u64> =
        prov.clone().find(|r| r.id == id).map_or_else(Vec::new, |r| r.causal_ids().collect());
    prov.filter(|r| r.id == id || members.contains(&r.id)).cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{field, Field, Ring};

    /// Records a batch over `members` the way `Collector::prov_batch` does.
    fn batch(l: &mut Ring, ts: u64, members: &[u64], stage: &'static str) -> u64 {
        let id = l.batch_id();
        let fields: Vec<Field> = members.iter().map(|&m| field("member", m)).collect();
        l.prov(ts, id, stage, fields);
        id
    }

    fn stages(recs: &[Record]) -> Vec<&'static str> {
        recs.iter().map(|r| r.name).collect()
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut l = Ring::new(2);
        l.prov(1, 10, stage::COMMIT, vec![]);
        l.prov(2, 11, stage::COMMIT, vec![]);
        l.prov(3, 12, stage::COMMIT, vec![]);
        assert_eq!(l.records().count(), 2);
        assert_eq!(l.dropped(), 1);
        assert_eq!(l.records().next().unwrap().id, 11, "oldest evicted first");
    }

    #[test]
    fn explain_traverses_batches_both_ways() {
        let mut l = Ring::new(16);
        l.prov(1, 7, stage::COMMIT, vec![]);
        l.prov(2, 8, stage::COMMIT, vec![]);
        let b = batch(&mut l, 3, &[7, 8], stage::MERGE);
        l.prov(4, 7, stage::APPLIED, vec![]);

        let seven = explain(l.records(), 7);
        assert_eq!(stages(&seven), vec![stage::COMMIT, stage::MERGE, stage::APPLIED]);

        let whole = explain(l.records(), b);
        assert_eq!(whole.len(), 4, "batch explain covers both members and itself");
        let members: Vec<u64> = whole[2].causal_ids().collect();
        assert_eq!(members, vec![7, 8], "the batch record names its members");
    }

    #[test]
    fn explain_over_an_evicting_ring_reads_only_surviving_records() {
        // A member whose own records were evicted while its batch record
        // survives: its lineage is that batch record.
        let mut l = Ring::new(3);
        l.prov(1, 7, stage::COMMIT, vec![]);
        l.prov(2, 8, stage::COMMIT, vec![]);
        let b = batch(&mut l, 3, &[7, 8], stage::MERGE);
        l.prov(4, 8, stage::APPLIED, vec![]);
        assert_eq!(l.dropped(), 1, "u7's commit was evicted");
        assert_eq!(stages(&explain(l.records(), 7)), vec![stage::MERGE]);
        assert_eq!(
            stages(&explain(l.records(), 8)),
            vec![stage::COMMIT, stage::MERGE, stage::APPLIED]
        );
        // A batch id queried directly: its record plus every member's.
        assert_eq!(
            stages(&explain(l.records(), b)),
            vec![stage::COMMIT, stage::MERGE, stage::APPLIED]
        );

        // A batch whose record was evicted: its members' lineages no longer
        // show it, and nothing else names its members.
        l.prov(5, 7, stage::APPLIED, vec![]);
        l.prov(6, 7, stage::EXTENT, vec![]);
        assert_eq!(l.dropped(), 3);
        assert_eq!(stages(&explain(l.records(), 7)), vec![stage::APPLIED, stage::EXTENT]);
        assert_eq!(stages(&explain(l.records(), 8)), vec![stage::APPLIED]);
        assert!(explain(l.records(), b).is_empty());
    }

    #[test]
    fn batch_ids_live_in_a_disjoint_namespace() {
        let mut l = Ring::new(4);
        let a = l.batch_id();
        let b = l.batch_id();
        assert_ne!(a, b);
        assert!(a & BATCH_BIT != 0 && b & BATCH_BIT != 0);
    }

    #[test]
    fn jsonl_escapes_and_renders_fields() {
        let mut l = Ring::new(4);
        l.prov(5, 1, stage::CONFLICT, vec![field("with", 2u64), field("kind", "SD")]);
        assert_eq!(
            l.jsonl(true),
            "{\"ts_us\":5,\"id\":1,\"stage\":\"conflict\",\"with\":2,\"kind\":\"SD\"}\n"
        );
    }

    #[test]
    fn zero_capacity_store_retains_nothing() {
        let mut l = Ring::new(0);
        l.prov(1, 1, stage::COMMIT, vec![]);
        assert_eq!(l.records().count(), 0);
        assert_eq!(l.dropped(), 1);
    }
}
