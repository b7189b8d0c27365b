//! Dyno is data-model independent (paper contribution (4): "our techniques
//! are general and independent of any data model ... [Dyno] has the
//! potential to be plugged into any view system").
//!
//! This example plugs the scheduler into a **document store**: sources are
//! collections of JSON-ish documents, the "view" is a materialized tag
//! index, data updates add documents, and schema changes rename whole
//! collections (breaking index-refresh scans that still use the old name).
//! No relational crate is involved — only `dyno-core`.
//!
//! Run with: `cargo run --example model_independence`

use std::collections::BTreeMap;

use dyno::core::{
    Dyno, MaintainOutcome, Maintainer, StepOutcome, Strategy, Umq, UpdateKind, UpdateMeta,
};

/// A document: id plus tags.
#[derive(Debug, Clone)]
struct Document {
    id: u64,
    tags: Vec<String>,
}

/// Updates a document source can commit.
#[derive(Debug, Clone)]
enum DocUpdate {
    /// Add a document to a collection.
    Insert { collection: String, doc: Document },
    /// Rename a collection (the "schema change" of this model).
    RenameCollection { from: String, to: String },
}

/// The autonomous document store: collections of documents.
#[derive(Debug, Default)]
struct DocStore {
    collections: BTreeMap<String, Vec<Document>>,
}

impl DocStore {
    fn commit(&mut self, update: &DocUpdate) {
        match update {
            DocUpdate::Insert { collection, doc } => {
                self.collections.entry(collection.clone()).or_default().push(doc.clone());
            }
            DocUpdate::RenameCollection { from, to } => {
                if let Some(docs) = self.collections.remove(from) {
                    self.collections.insert(to.clone(), docs);
                }
            }
        }
    }
}

/// The "view": a tag → document-ids index over a set of collections, with
/// its own definition (the collection names it scans).
struct TagIndexMaintainer {
    store: DocStore,
    /// The view definition: which collections the index covers.
    watched: Vec<String>,
    /// The materialized index.
    index: BTreeMap<String, Vec<u64>>,
    aborts: u64,
}

impl Maintainer<DocUpdate> for TagIndexMaintainer {
    fn maintain(
        &mut self,
        batch: &[UpdateMeta<DocUpdate>],
        _rest: &[Vec<UpdateMeta<DocUpdate>>],
    ) -> MaintainOutcome {
        // "View synchronization" first: follow the batch's renames in a
        // candidate definition and record the name mapping — the same
        // preprocessing the relational batch algorithm does (Section 5).
        let mut candidate = self.watched.clone();
        let mut renames: Vec<(String, String)> = Vec::new();
        for meta in batch {
            if let DocUpdate::RenameCollection { from, to } = &meta.payload {
                for w in &mut candidate {
                    if w == from {
                        *w = to.clone();
                    }
                }
                renames.push((from.clone(), to.clone()));
            }
        }

        // "Maintenance queries": scan each inserted-into collection under
        // its homogenized (post-rename) name. A name the store does not
        // have — e.g. a rename committed at the source but *not* in this
        // batch — is a broken query, exactly the paper's anomaly in a
        // non-relational model.
        let homogenize = |collection: &str| -> String {
            let mut name = collection.to_string();
            for (from, to) in &renames {
                if &name == from {
                    name = to.clone();
                }
            }
            name
        };
        for meta in batch {
            if let DocUpdate::Insert { collection, .. } = &meta.payload {
                let name = homogenize(collection);
                if candidate.contains(&name) && !self.store.collections.contains_key(&name) {
                    self.aborts += 1;
                    return MaintainOutcome::BrokenQuery;
                }
            }
        }

        // All queries validate: commit the batch to the view.
        self.watched = candidate;
        for meta in batch {
            if let DocUpdate::Insert { collection, doc } = &meta.payload {
                if self.watched.contains(&homogenize(collection)) {
                    for tag in &doc.tags {
                        self.index.entry(tag.clone()).or_default().push(doc.id);
                    }
                }
            }
        }
        MaintainOutcome::Committed
    }

    fn refresh_view_relevance(&mut self, queue: &mut Umq<DocUpdate>) {
        for meta in queue.metas_mut() {
            if let DocUpdate::RenameCollection { from, .. } = &meta.payload {
                meta.kind =
                    UpdateKind::Schema { invalidates_view: self.watched.iter().any(|w| w == from) };
            }
        }
    }
}

fn main() {
    let mut store = DocStore::default();
    store.collections.insert("articles".into(), Vec::new());
    store.collections.insert("notes".into(), Vec::new());

    // Autonomous commits: an insert into `articles`, then the provider
    // renames `articles` → `posts` before the index catches up.
    let updates = vec![
        (
            0u32,
            DocUpdate::Insert {
                collection: "articles".into(),
                doc: Document { id: 1, tags: vec!["db".into(), "views".into()] },
            },
        ),
        (0, DocUpdate::RenameCollection { from: "articles".into(), to: "posts".into() }),
        (
            0,
            DocUpdate::Insert {
                collection: "posts".into(),
                doc: Document { id: 2, tags: vec!["db".into()] },
            },
        ),
    ];
    for (_, u) in &updates {
        store.commit(u);
    }

    let mut maintainer = TagIndexMaintainer {
        store,
        watched: vec!["articles".into(), "notes".into()],
        index: BTreeMap::new(),
        aborts: 0,
    };

    // Enqueue the wrapper messages and let Dyno schedule them.
    let mut queue: Umq<DocUpdate> = Umq::new();
    for (i, (source, u)) in updates.into_iter().enumerate() {
        let kind = match &u {
            DocUpdate::Insert { .. } => UpdateKind::Data,
            DocUpdate::RenameCollection { .. } => UpdateKind::Schema { invalidates_view: true },
        };
        queue.enqueue(UpdateMeta::new(i as u64, source, kind, u));
    }

    let mut dyno = Dyno::new(Strategy::Pessimistic);
    let mut steps = 0;
    while !queue.is_empty() && steps < 100 {
        let outcome = dyno.step(&mut queue, &mut maintainer);
        println!("step {steps}: {outcome:?}");
        assert_ne!(outcome, StepOutcome::Failed);
        steps += 1;
    }

    println!("\nfinal view definition (watched collections): {:?}", maintainer.watched);
    println!("materialized tag index: {:?}", maintainer.index);
    println!("scheduler stats: {:?}\nbroken scans suffered: {}", dyno.stats(), maintainer.aborts);

    // The same guarantees as the relational instantiation: both documents
    // indexed exactly once, the definition follows the rename, and the
    // pessimistic scheduler avoided the broken scan by merging the
    // same-source insert with the rename.
    assert_eq!(maintainer.watched, vec!["posts".to_string(), "notes".to_string()]);
    assert_eq!(maintainer.index.get("db"), Some(&vec![1, 2]));
    assert_eq!(maintainer.index.get("views"), Some(&vec![1]));
    assert_eq!(maintainer.aborts, 0);
    println!("\nmodel independence demonstrated: no relational machinery involved.");
}
