//! The paper's experimental testbed (Section 6.1): six relations evenly
//! distributed over three source servers, four attributes each, a
//! materialized view defined as a one-to-one join among all six relations
//! projecting all twenty-four attributes — plus the view sets later suites
//! define over the same relations: overlapping three-way joins
//! ([`build_multiview`]) and per-tenant views ([`tenant_views`]).

use crate::rng::Rng;
use dyno_relational::{AttrType, Catalog, Relation, Schema, SpjQuery, Tuple, Value};
use dyno_source::{SourceId, SourceServer, SourceSpace};
use dyno_view::ViewDefinition;

/// Testbed parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestbedConfig {
    /// Number of source servers (paper: 3).
    pub sources: u32,
    /// Relations per server (paper: 2).
    pub relations_per_source: u32,
    /// Tuples per relation. The paper uses 100 000; the default here is
    /// 10 000 so debug-mode tests stay fast — the simulated cost model is
    /// calibrated for this scale, and experiments can pass the full size.
    pub tuples_per_relation: usize,
    /// Non-key attributes per relation (paper: 4 attributes total = key + 3).
    pub extra_attrs: usize,
    /// RNG seed for attribute values.
    pub seed: u64,
    /// Declare a secondary hash index on each relation's join key `K`, so
    /// maintenance queries probe instead of scanning. On by default — pass
    /// `false` to measure the scan baseline.
    pub indexes: bool,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            sources: 3,
            relations_per_source: 2,
            tuples_per_relation: 10_000,
            extra_attrs: 3,
            seed: 42,
            indexes: true,
        }
    }
}

impl TestbedConfig {
    /// Total number of relations.
    pub fn relation_count(&self) -> usize {
        (self.sources * self.relations_per_source) as usize
    }

    /// Canonical relation names `R0..R{n-1}`.
    pub fn relation_names(&self) -> Vec<String> {
        (0..self.relation_count()).map(|i| format!("R{i}")).collect()
    }

    /// The schema of relation `i`: key `K` plus `A1..Am`.
    pub fn schema(&self, i: usize) -> Schema {
        let mut cols = vec![("K".to_string(), AttrType::Int)];
        for a in 1..=self.extra_attrs {
            cols.push((format!("A{a}"), AttrType::Int));
        }
        let attrs = cols.into_iter().map(|(n, t)| dyno_relational::Attribute::new(n, t)).collect();
        Schema::new(format!("R{i}"), attrs).expect("generated attribute names are unique")
    }
}

/// Builds the source space: relation `Ri` lives on server `i / relations_per_source`,
/// populated with keys `0..tuples_per_relation` (so the n-way join is
/// one-to-one) and pseudorandom attribute values.
pub fn build_space(cfg: &TestbedConfig) -> SourceSpace {
    let mut rng = Rng::new(cfg.seed);
    let mut space = SourceSpace::new();
    for s in 0..cfg.sources {
        let mut catalog = Catalog::new();
        for r in 0..cfg.relations_per_source {
            let idx = (s * cfg.relations_per_source + r) as usize;
            let schema = cfg.schema(idx);
            let mut rel = Relation::empty(schema);
            for k in 0..cfg.tuples_per_relation {
                let mut vals = vec![Value::from(k as i64)];
                for _ in 0..cfg.extra_attrs {
                    vals.push(Value::from(rng.gen_range(0..1_000_000i64)));
                }
                rel.insert(Tuple::new(vals)).expect("generated tuples are well-typed");
            }
            catalog.add_relation(rel).expect("generated names are unique");
        }
        space.add_server(SourceServer::new(SourceId(s), format!("server{s}"), catalog));
    }
    if cfg.indexes {
        for name in cfg.relation_names() {
            space.create_index(&name, &["K"]).expect("testbed relations exist");
        }
    }
    space
}

/// The key-join view `name` over relations `rels` (testbed indices, in join
/// order): every attribute of each relation projected as `Ri_attr`, adjacent
/// relations joined on `K`. Every view set below is built from it, so equal
/// relation lists yield equal SQL.
pub(crate) fn join_view(cfg: &TestbedConfig, name: String, rels: &[usize]) -> ViewDefinition {
    let tables: Vec<String> = rels.iter().map(|i| format!("R{i}")).collect();
    let mut b = SpjQuery::over(tables.clone());
    for (table, &i) in tables.iter().zip(rels) {
        for attr in cfg.schema(i).attrs() {
            b = b.select_as(table, &attr.name, &format!("{table}_{}", attr.name));
        }
    }
    for w in tables.windows(2) {
        b = b.join_eq((w[0].as_str(), "K"), (w[1].as_str(), "K"));
    }
    ViewDefinition::new(name, b.build())
}

/// The testbed view: `SELECT * FROM R0 ⋈ R1 ⋈ … ⋈ R{n-1}` joined pairwise
/// on `K`, outputs named `Ri_attr` (24 columns at the paper's shape).
pub fn build_view(cfg: &TestbedConfig) -> ViewDefinition {
    let all: Vec<usize> = (0..cfg.relation_count()).collect();
    join_view(cfg, "Testbed".into(), &all)
}

/// `views` overlapping definitions over the testbed space: view *i* is
/// `R0 ⋈ R1 ⋈ R{2+i}`. All views share the `R0 ⋈ R1` join (same equi-join
/// signature, so their ΔR0/ΔR1 first hops hit the shared-subplan cache) and
/// each reads one distinct relation on a distinct source, giving per-view
/// source sets that overlap without coinciding. Panics if the testbed has
/// fewer than `views + 2` relations.
pub fn build_multiview(cfg: &TestbedConfig, views: usize) -> Vec<ViewDefinition> {
    assert!(
        views + 2 <= cfg.relation_count(),
        "need {} relations for {views} overlapping views, testbed has {}",
        views + 2,
        cfg.relation_count()
    );
    (0..views).map(|i| join_view(cfg, format!("V{i}"), &[0, 1, 2 + i])).collect()
}

/// The tenant views `T0..Tn`: even indices are single-relation
/// passthroughs, odd indices two-way key joins, rotating over the testbed
/// relations so different tenants watch different sources.
pub fn tenant_views(cfg: &TestbedConfig, n: usize) -> Vec<ViewDefinition> {
    let names = cfg.relation_names();
    (0..n)
        .map(|t| {
            let r = t % names.len();
            if t % 2 == 0 {
                return join_view(cfg, format!("T{t}"), &[r]);
            }
            let r2 = (r + 1) % names.len();
            let mut b = SpjQuery::over([names[r].clone(), names[r2].clone()]);
            b = b.select_as(&names[r], "K", "K");
            for attr in cfg.schema(r2).attrs().iter().skip(1) {
                b = b.select_as(&names[r2], &attr.name, &format!("{}_{}", names[r2], attr.name));
            }
            let q = b.join_eq((names[r].as_str(), "K"), (names[r2].as_str(), "K")).build();
            ViewDefinition::new(format!("T{t}"), q)
        })
        .collect()
}

/// Convenience: a testbed space + view pair.
pub fn build_testbed(cfg: &TestbedConfig) -> (SourceSpace, ViewDefinition) {
    (build_space(cfg), build_view(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyno_relational::eval;

    fn tiny() -> TestbedConfig {
        TestbedConfig { tuples_per_relation: 50, ..Default::default() }
    }

    #[test]
    fn shape_matches_paper() {
        let cfg = TestbedConfig::default();
        assert_eq!(cfg.relation_count(), 6);
        let view = build_view(&cfg);
        assert_eq!(view.query.tables.len(), 6);
        assert_eq!(view.output_cols().len(), 24, "all twenty-four attributes");
        assert_eq!(view.query.predicates.len(), 5, "chain of one-to-one joins");
    }

    #[test]
    fn join_is_one_to_one() {
        let cfg = tiny();
        let (space, view) = build_testbed(&cfg);
        let out = eval(&view.query, &space.provider()).unwrap();
        assert_eq!(out.weight(), 50, "one view tuple per key");
    }

    #[test]
    fn view_sets_keep_their_sql() {
        // The SQL is a determinism surface (crash and multi-view suites
        // compare final definitions), so the shapes are pinned literally.
        let cfg = TestbedConfig { tuples_per_relation: 1, extra_attrs: 1, ..Default::default() };
        let sql = |views: Vec<ViewDefinition>| -> Vec<String> {
            views.iter().map(ToString::to_string).collect()
        };
        assert_eq!(
            sql(build_multiview(&cfg, 3))[1],
            "CREATE VIEW V1 AS SELECT R0.K AS R0_K, R0.A1 AS R0_A1, R1.K AS R1_K, \
             R1.A1 AS R1_A1, R3.K AS R3_K, R3.A1 AS R3_A1 FROM R0, R1, R3 \
             WHERE R0.K = R1.K AND R1.K = R3.K"
        );
        assert_eq!(
            sql(tenant_views(&cfg, 8))[..2],
            [
                "CREATE VIEW T0 AS SELECT R0.K AS R0_K, R0.A1 AS R0_A1 FROM R0",
                "CREATE VIEW T1 AS SELECT R1.K, R2.A1 AS R2_A1 FROM R1, R2 WHERE R1.K = R2.K",
            ]
        );
    }

    #[test]
    fn overlapping_views_share_one_join_and_fan_out_over_sources() {
        let cfg = tiny();
        let space = build_space(&cfg);
        let views = build_multiview(&cfg, 4);
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.query.tables, ["R0".to_string(), "R1".into(), format!("R{}", 2 + i)]);
            assert_eq!(v.output_cols().len(), 3 * (1 + cfg.extra_attrs));
            let out = eval(&v.query, &space.provider()).unwrap();
            assert_eq!(out.weight(), 50, "V{i} is a one-to-one key join");
        }
        let third_sources: Vec<_> =
            views.iter().map(|v| space.locate(&v.query.tables[2]).unwrap()).collect();
        assert!(third_sources.contains(&SourceId(1)) && third_sources.contains(&SourceId(2)));
    }

    #[test]
    #[should_panic(expected = "need 7 relations")]
    fn more_overlapping_views_than_relations_is_refused() {
        build_multiview(&tiny(), 5);
    }

    #[test]
    fn tenant_views_alternate_shapes_and_rotate_over_relations() {
        let cfg = tiny();
        let space = build_space(&cfg);
        let tenants = tenant_views(&cfg, 8);
        for (t, v) in tenants.iter().enumerate() {
            assert_eq!(v.query.tables.len(), 1 + t % 2, "T{t}: passthrough, then two-way join");
            assert_eq!(v.query.tables[0], format!("R{}", t % 6), "T{t} rotates over the testbed");
            assert_eq!(eval(&v.query, &space.provider()).unwrap().weight(), 50);
        }
    }

    #[test]
    fn distribution_over_servers() {
        let cfg = tiny();
        let space = build_space(&cfg);
        assert_eq!(space.servers().len(), 3);
        assert_eq!(space.locate("R0"), Some(SourceId(0)));
        assert_eq!(space.locate("R1"), Some(SourceId(0)));
        assert_eq!(space.locate("R2"), Some(SourceId(1)));
        assert_eq!(space.locate("R5"), Some(SourceId(2)));
    }

    #[test]
    fn key_indexes_declared_by_default() {
        let cfg = tiny();
        let space = build_space(&cfg);
        for (i, name) in cfg.relation_names().iter().enumerate() {
            let sid = space.locate(name).unwrap();
            let idx = space.server(sid).catalog().index_covering(name, &["K"]);
            assert!(idx.is_some(), "R{i} has a key index");
            assert_eq!(idx.unwrap().len(), cfg.tuples_per_relation);
        }
        let scan = build_space(&TestbedConfig { indexes: false, ..tiny() });
        assert!(scan.server(SourceId(0)).catalog().index_covering("R0", &["K"]).is_none());
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = tiny();
        let a = build_space(&cfg);
        let b = build_space(&cfg);
        assert_eq!(
            a.server(SourceId(0)).catalog().get("R0").unwrap(),
            b.server(SourceId(0)).catalog().get("R0").unwrap()
        );
    }
}
