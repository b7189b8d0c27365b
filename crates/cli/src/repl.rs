//! The command interpreter behind `dyno-cli`: a tiny warehouse shell.
//!
//! Separated from `main.rs` so every command is unit-testable: the
//! interpreter takes one line and returns the text to print (or an error
//! message — the shell never crashes on bad input).

use std::fmt::Write as _;

use dyno_core::Strategy;
use dyno_durable::FileStorage;
use dyno_obs::{Capture, Collector, Sampler, SloPolicy, StalenessTracker};
use dyno_relational::{
    parse_query, AttrType, Catalog, DataUpdate, Delta, Schema, SchemaChange, SourceUpdate, Tuple,
    Value,
};
use dyno_source::{SourceId, SourceServer, SourceSpace};
use dyno_view::{DurableLog, InProcessPort, SourcePort, ViewDefinition, Warehouse};

/// Interactive state: the source space (behind a port) plus the warehouse.
pub struct Repl {
    port: InProcessPort,
    warehouse: Warehouse,
    initialized: bool,
    /// Per-view staleness lanes (`slo` command); lanes are registered by
    /// `init`, commits/refreshes flow in from `insert`/`run`/`step`.
    tracker: StalenessTracker,
    /// Registry time-series sampling (`series` command); off until
    /// `series on`.
    sampler: Option<Sampler>,
}

impl Default for Repl {
    fn default() -> Self {
        Repl::new()
    }
}

/// Counters the WAL and recovery paths write lazily; registered up front so
/// `stats` always surfaces them (a session that never power-cut shows
/// `wal.power_cuts: 0` rather than omitting the line).
const DURABILITY_COUNTERS: [&str; 7] = [
    "wal.appends",
    "wal.bytes",
    "wal.checkpoints",
    "wal.power_cuts",
    "recover.replayed",
    "recover.torn_records",
    "recover.reparked_intents",
];

/// Delta-execution and shared-subplan counters, same discipline as
/// [`DURABILITY_COUNTERS`]: the warehouse samples `exec.*` from the
/// relational layer's thread-locals and bumps `subplan.*` on cache
/// hits/misses, but a session that never maintains anything should still
/// show them at zero in `stats`.
const EXEC_COUNTERS: [&str; 8] = [
    "exec.rows_scanned",
    "exec.index_probes",
    "exec.index_join_steps",
    "exec.hash_join_steps",
    "exec.cartesian_fallbacks",
    "exec.weights_cancelled",
    "subplan.shared_hits",
    "subplan.shared_misses",
];

impl Repl {
    /// A fresh shell: no sources, no views, pessimistic scheduling.
    /// Lineage capture is on from the start so `explain <id>` works for
    /// every update committed in the session; the ring holds 16 k records
    /// for it plus 64 k for a trace switched on later.
    pub fn new() -> Self {
        let obs = Collector::wall().with_capture(Capture::PROV, (16 + 64) * 1024);
        for name in DURABILITY_COUNTERS.iter().chain(EXEC_COUNTERS.iter()) {
            let _ = obs.registry().counter(name);
        }
        let tracker = StalenessTracker::new(512);
        tracker.bind_obs(&obs);
        Repl {
            port: InProcessPort::new(SourceSpace::new()),
            warehouse: Warehouse::new(dyno_source::InfoSpace::new(), Strategy::Pessimistic)
                .with_obs(obs)
                .with_staleness(tracker.clone()),
            initialized: false,
            tracker,
            sampler: None,
        }
    }

    /// The built-in help text.
    pub fn help() -> &'static str {
        "commands:\n\
         \x20 source <name>                         add an autonomous source\n\
         \x20 table <source#> <Name> <col:type,..>  create a relation (types: int,str,float,bool)\n\
         \x20 insert <source#> <Relation> <v,..>    commit a one-row insert\n\
         \x20 delete <source#> <Relation> <v,..>    commit a one-row delete\n\
         \x20 rename <source#> <From> <To>          commit a rename-relation schema change\n\
         \x20 dropattr <source#> <Relation> <Attr>  commit a drop-attribute schema change\n\
         \x20 view <SQL>                            register a view (CREATE VIEW n AS SELECT ...)\n\
         \x20 init                                  materialize all views\n\
         \x20 step                                  run one Dyno scheduling step\n\
         \x20 run                                   run to quiescence\n\
         \x20 sql <SELECT ...>                      ad-hoc query over current source states\n\
         \x20 show                                  views, extents, queue and stats\n\
         \x20 stats                                 metrics registry snapshot (counters, gauges, histograms)\n\
         \x20 explain <id>                          provenance timeline of one committed update\n\
         \x20 checkpoint <path>                     attach a write-ahead log at <path> and snapshot into it\n\
         \x20 recover <path>                        replace the warehouse with one recovered from <path>\n\
         \x20 trace on|off|dump <path>              toggle structured tracing / write the JSONL trace\n\
         \x20 profile on|off|show                   toggle / render the per-operator cost profiler\n\
         \x20 explain-plan <view>                   EXPLAIN ANALYZE tree of one view's maintenance plans\n\
         \x20 slo [<p99_ms> [window_ms]]            set / show the per-view staleness SLO (burn-rate alerts)\n\
         \x20 series on <window_ms> [cap] | off     start/stop registry time-series sampling\n\
         \x20 series [sample|show|dump <path>]      tick / render / export the sampled series\n\
         \x20 help                                  this text\n\
         \x20 quit                                  exit"
    }

    /// Executes one command line; returns the text to display.
    pub fn execute(&mut self, line: &str) -> Result<String, String> {
        let line = line.trim();
        if line.is_empty() {
            return Ok(String::new());
        }
        let (cmd, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
        let rest = rest.trim();
        match cmd.to_ascii_lowercase().as_str() {
            "help" => Ok(Repl::help().to_string()),
            "source" => self.cmd_source(rest),
            "table" => self.cmd_table(rest),
            "insert" => self.cmd_dml(rest, true),
            "delete" => self.cmd_dml(rest, false),
            "rename" => self.cmd_rename(rest),
            "dropattr" => self.cmd_dropattr(rest),
            "view" => self.cmd_view(rest),
            "init" => self.cmd_init(),
            "step" => self.cmd_step(),
            "run" => self.cmd_run(),
            "sql" => self.cmd_sql(rest),
            "show" => Ok(self.render_state()),
            "stats" => Ok(self.cmd_stats()),
            "explain" => self.cmd_explain(rest),
            "explain-plan" => self.cmd_explain_plan(rest),
            "profile" => self.cmd_profile(rest),
            "checkpoint" => self.cmd_checkpoint(rest),
            "recover" => self.cmd_recover(rest),
            "trace" => self.cmd_trace(rest),
            "slo" => self.cmd_slo(rest),
            "series" => self.cmd_series(rest),
            other => Err(format!("unknown command `{other}` — try `help`")),
        }
    }

    fn cmd_source(&mut self, name: &str) -> Result<String, String> {
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err("usage: source <name>".into());
        }
        let id = SourceId(self.port.space().servers().len() as u32);
        self.port.space_mut().add_server(SourceServer::new(id, name.to_string(), Catalog::new()));
        Ok(format!("source #{} `{name}` added", id.0))
    }

    /// Records the source-commit provenance hop (the `InProcessPort` has no
    /// collector of its own, unlike the simulator's port).
    fn note_commit(&self, msg: &dyno_source::UpdateMessage) {
        self.warehouse.obs().prov(
            msg.id.0,
            dyno_obs::stage::COMMIT,
            &[
                dyno_obs::field("source", msg.source.0),
                dyno_obs::field("version", msg.source_version),
            ],
        );
        self.tracker.note_commit(msg.source.0, msg.source_version, self.warehouse.obs().now_us());
    }

    /// Advances the telemetry clocks past `now`: closes due sampler and
    /// staleness windows. Called after every scheduling command so the
    /// series stay fresh without a background thread.
    fn tick_telemetry(&mut self) {
        let now = self.warehouse.obs().now_us();
        self.tracker.maybe_sample(now);
        if let Some(s) = &mut self.sampler {
            s.maybe_sample(now);
        }
    }

    fn parse_source(&self, token: &str) -> Result<SourceId, String> {
        let idx: u32 = token.parse().map_err(|_| format!("`{token}` is not a source number"))?;
        if (idx as usize) < self.port.space().servers().len() {
            Ok(SourceId(idx))
        } else {
            Err(format!("no source #{idx} (add one with `source <name>`)"))
        }
    }

    fn cmd_table(&mut self, rest: &str) -> Result<String, String> {
        let mut parts = rest.split_whitespace();
        let (src, name, cols) = match (parts.next(), parts.next(), parts.next()) {
            (Some(s), Some(n), Some(c)) => (s, n, c),
            _ => return Err("usage: table <source#> <Name> <col:type,...>".into()),
        };
        let source = self.parse_source(src)?;
        let mut attrs = Vec::new();
        for spec in cols.split(',') {
            let (col, ty) = spec
                .split_once(':')
                .ok_or_else(|| format!("column spec `{spec}` must be name:type"))?;
            let ty = match ty.to_ascii_lowercase().as_str() {
                "int" => AttrType::Int,
                "str" => AttrType::Str,
                "float" => AttrType::Float,
                "bool" => AttrType::Bool,
                other => return Err(format!("unknown type `{other}`")),
            };
            attrs.push((col.to_string(), ty));
        }
        let schema = Schema::new(
            name,
            attrs.into_iter().map(|(n, t)| dyno_relational::Attribute::new(n, t)).collect(),
        )
        .map_err(|e| e.to_string())?;
        // Creating a relation is itself an (additive) schema change.
        let msg = self
            .port
            .commit(source, SourceUpdate::Schema(SchemaChange::CreateRelation { schema }))
            .map_err(|e| e.to_string())?;
        self.note_commit(&msg);
        Ok(format!("relation `{name}` created at source #{}", source.0))
    }

    fn parse_values(&self, source: SourceId, relation: &str, csv: &str) -> Result<Tuple, String> {
        let schema = self
            .port
            .space()
            .server(source)
            .catalog()
            .get(relation)
            .map_err(|e| e.to_string())?
            .schema()
            .clone();
        let raw: Vec<&str> = csv.split(',').collect();
        if raw.len() != schema.arity() {
            return Err(format!(
                "`{relation}` has {} columns, got {} values",
                schema.arity(),
                raw.len()
            ));
        }
        let mut vals = Vec::with_capacity(raw.len());
        for (token, attr) in raw.iter().zip(schema.attrs()) {
            let v = match attr.ty {
                AttrType::Int => Value::from(
                    token.parse::<i64>().map_err(|_| format!("`{token}` is not an int"))?,
                ),
                AttrType::Float => Value::float(
                    token.parse::<f64>().map_err(|_| format!("`{token}` is not a float"))?,
                ),
                AttrType::Bool => Value::Bool(
                    token.parse::<bool>().map_err(|_| format!("`{token}` is not a bool"))?,
                ),
                AttrType::Str => Value::str(*token),
            };
            vals.push(v);
        }
        Ok(Tuple::new(vals))
    }

    fn cmd_dml(&mut self, rest: &str, insert: bool) -> Result<String, String> {
        let mut parts = rest.splitn(3, char::is_whitespace);
        let (src, rel, vals) = match (parts.next(), parts.next(), parts.next()) {
            (Some(s), Some(r), Some(v)) => (s, r, v.trim()),
            _ => return Err("usage: insert|delete <source#> <Relation> <v1,v2,...>".into()),
        };
        let source = self.parse_source(src)?;
        let tuple = self.parse_values(source, rel, vals)?;
        let schema = self
            .port
            .space()
            .server(source)
            .catalog()
            .get(rel)
            .map_err(|e| e.to_string())?
            .schema()
            .clone();
        let delta =
            if insert { Delta::inserts(schema, [tuple]) } else { Delta::deletes(schema, [tuple]) }
                .map_err(|e| e.to_string())?;
        let msg = self
            .port
            .commit(source, SourceUpdate::Data(DataUpdate::new(delta)))
            .map_err(|e| e.to_string())?;
        self.note_commit(&msg);
        Ok(format!("committed {msg}"))
    }

    fn cmd_rename(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [src, from, to] = parts.as_slice() else {
            return Err("usage: rename <source#> <From> <To>".into());
        };
        let source = self.parse_source(src)?;
        let msg = self
            .port
            .commit(
                source,
                SourceUpdate::Schema(SchemaChange::RenameRelation {
                    from: from.to_string(),
                    to: to.to_string(),
                }),
            )
            .map_err(|e| e.to_string())?;
        self.note_commit(&msg);
        Ok(format!("committed {msg}"))
    }

    fn cmd_dropattr(&mut self, rest: &str) -> Result<String, String> {
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [src, rel, attr] = parts.as_slice() else {
            return Err("usage: dropattr <source#> <Relation> <Attr>".into());
        };
        let source = self.parse_source(src)?;
        let msg = self
            .port
            .commit(
                source,
                SourceUpdate::Schema(SchemaChange::DropAttribute {
                    relation: rel.to_string(),
                    attr: attr.to_string(),
                }),
            )
            .map_err(|e| e.to_string())?;
        self.note_commit(&msg);
        Ok(format!("committed {msg}"))
    }

    fn cmd_view(&mut self, sql: &str) -> Result<String, String> {
        if self.initialized {
            return Err("views must be registered before `init`".into());
        }
        let n = self.warehouse.view_count();
        let view = ViewDefinition::parse(sql, &format!("View{n}")).map_err(|e| e.to_string())?;
        let name = view.name.clone();
        self.warehouse.add_view(view);
        Ok(format!("view `{name}` registered (initialize with `init`)"))
    }

    fn cmd_init(&mut self) -> Result<String, String> {
        self.warehouse.initialize(&mut self.port).map_err(|e| e.to_string())?;
        self.initialized = true;
        let mut out = String::new();
        for i in 0..self.warehouse.view_count() {
            let _ = writeln!(
                out,
                "materialized `{}` [{} tuples]",
                self.warehouse.view(i).name,
                self.warehouse.mv(i).len()
            );
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_step(&mut self) -> Result<String, String> {
        self.require_init()?;
        let outcome = self.warehouse.step(&mut self.port).map_err(|e| e.to_string())?;
        self.tick_telemetry();
        Ok(format!("{outcome:?}"))
    }

    fn cmd_run(&mut self) -> Result<String, String> {
        self.require_init()?;
        let steps =
            self.warehouse.run_to_quiescence(&mut self.port, 10_000).map_err(|e| e.to_string())?;
        self.tick_telemetry();
        Ok(format!("quiesced after {steps} step(s)"))
    }

    fn cmd_sql(&mut self, sql: &str) -> Result<String, String> {
        let query = parse_query(sql).map_err(|e| e.to_string())?;
        let result = self.port.execute(&query, &[]).map_err(|e| e.to_string())?;
        let mut out = format!("({})\n", result.cols.join(", "));
        for (t, c) in result.rows.sorted().into_iter().take(50) {
            if c == 1 {
                let _ = writeln!(out, "  {t}");
            } else {
                let _ = writeln!(out, "  {t} x{c}");
            }
        }
        let _ = write!(out, "{} tuple(s)", result.weight());
        Ok(out)
    }

    fn cmd_stats(&self) -> String {
        let mut out = self.warehouse.obs().metrics_text().trim_end().to_string();
        match self.warehouse.last_error() {
            Some(e) => {
                let _ = write!(out, "\nlast_error: {e}");
            }
            None => out.push_str("\nlast_error: none"),
        }
        out
    }

    fn cmd_explain(&self, rest: &str) -> Result<String, String> {
        let id: u64 = rest.trim().parse().map_err(|_| {
            "usage: explain <update-id> (ids are printed by insert/delete/rename/dropattr)"
                .to_string()
        })?;
        let obs = self.warehouse.obs();
        Ok(dyno_obs::forensics::explain_text(id, &obs.explain(id)).trim_end().to_string())
    }

    /// `profile on|off|show` — the per-operator cost profiler. `show`
    /// renders every captured plan; `explain-plan <view>` narrows to one.
    fn cmd_profile(&mut self, rest: &str) -> Result<String, String> {
        let obs = self.warehouse.obs();
        match rest.trim() {
            "" => Ok(format!(
                "profiler is {} ({} plan(s) captured)",
                if obs.capturing(Capture::PROFILE) { "on" } else { "off" },
                obs.profile_snapshot().plan_count()
            )),
            "on" => {
                obs.set_capture(obs.capture().with(Capture::PROFILE, true));
                Ok("profiler on — maintenance work now records per-operator costs".into())
            }
            "off" => {
                obs.set_capture(obs.capture().with(Capture::PROFILE, false));
                Ok("profiler off (captured plans kept; `profile show` still renders them)".into())
            }
            "show" => Ok(obs.profile_snapshot().render_text(None).trim_end().to_string()),
            other => Err(format!("unknown profile subcommand `{other}` — on, off or show")),
        }
    }

    /// `explain-plan <view>` — the EXPLAIN ANALYZE tree of one view's
    /// maintenance plans (one plan per driving relation, plus the
    /// warehouse pipeline plan under the `warehouse` pseudo-view).
    fn cmd_explain_plan(&self, rest: &str) -> Result<String, String> {
        let name = rest.trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return Err("usage: explain-plan <view> (turn capture on with `profile on`)".into());
        }
        let known = name == "warehouse"
            || (0..self.warehouse.view_count()).any(|i| self.warehouse.view(i).name == name);
        if !known {
            return Err(format!(
                "no view `{name}` (registered views{}; `warehouse` is the pipeline plan)",
                (0..self.warehouse.view_count())
                    .map(|i| format!(" {}", self.warehouse.view(i).name))
                    .collect::<String>()
            ));
        }
        Ok(self.warehouse.obs().profile_snapshot().render_text(Some(name)).trim_end().to_string())
    }

    fn cmd_checkpoint(&mut self, rest: &str) -> Result<String, String> {
        let path = rest.trim();
        if path.is_empty() {
            return Err("usage: checkpoint <path>".into());
        }
        self.require_init()?;
        if self.warehouse.umq_bound().is_some() {
            // Checked up front: `with_wal` is a by-value builder, so letting
            // it reject after the swap would drop the live warehouse.
            return Err("cannot attach a WAL to a bounded (shedding) warehouse".into());
        }
        let log = DurableLog::create(Box::new(FileStorage::new(path)))
            .map_err(|e| format!("cannot open log `{path}`: {e}"))?;
        // `with_wal` is a by-value builder; swap the warehouse through it.
        let wh = std::mem::replace(
            &mut self.warehouse,
            Warehouse::new(dyno_source::InfoSpace::new(), Strategy::Pessimistic),
        );
        self.warehouse = wh.with_wal(log).map_err(|e| e.to_string())?;
        Ok(format!("write-ahead log attached, state checkpointed to {path}"))
    }

    fn cmd_recover(&mut self, rest: &str) -> Result<String, String> {
        let path = rest.trim();
        if path.is_empty() {
            return Err("usage: recover <path>".into());
        }
        let info = self.port.space().info().clone();
        let obs = self.warehouse.obs().clone();
        let (wh, report) = Warehouse::recover(Box::new(FileStorage::new(path)), info, obs)
            .map_err(|e| format!("cannot recover from `{path}`: {e}"))?;
        self.warehouse = wh.with_staleness(self.tracker.clone());
        self.initialized = true;
        Ok(format!(
            "recovered {} view(s) from {path}: {} record(s) replayed, {} torn, {} intent(s) re-parked",
            self.warehouse.view_count(),
            report.replayed_records,
            report.torn_records,
            report.reparked_intents
        ))
    }

    fn cmd_trace(&mut self, rest: &str) -> Result<String, String> {
        let obs = self.warehouse.obs();
        let (sub, arg) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        match sub {
            "" => Ok(format!(
                "tracing is {} ({} record(s) buffered)",
                if obs.capturing(Capture::TRACE) { "on" } else { "off" },
                obs.trace_jsonl().lines().count()
            )),
            "on" => {
                obs.set_capture(obs.capture().with(Capture::TRACE, true));
                Ok("tracing on".into())
            }
            "off" => {
                obs.set_capture(obs.capture().with(Capture::TRACE, false));
                Ok("tracing off".into())
            }
            "dump" => {
                let path = arg.trim();
                if path.is_empty() {
                    return Err("usage: trace dump <path>".into());
                }
                let trace = obs.trace_jsonl();
                std::fs::write(path, &trace).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                Ok(format!("{} trace record(s) written to {path}", trace.lines().count()))
            }
            other => Err(format!("unknown trace subcommand `{other}` — on, off or dump <path>")),
        }
    }

    fn cmd_slo(&mut self, rest: &str) -> Result<String, String> {
        let rest = rest.trim();
        if rest.is_empty() {
            if self.tracker.view_count() == 0 {
                return Ok("no staleness lanes yet — `init` registers one per view".into());
            }
            let now = self.warehouse.obs().now_us();
            return Ok(self.tracker.render_text(now).trim_end().to_string());
        }
        let usage = || "usage: slo [<p99_ms> [window_ms]]".to_string();
        let mut parts = rest.split_whitespace();
        let p99_ms: u64 = parts.next().ok_or_else(usage)?.parse().map_err(|_| usage())?;
        let window_ms: u64 = match parts.next() {
            Some(t) => t.parse().map_err(|_| usage())?,
            None => 1_000,
        };
        if p99_ms == 0 || window_ms == 0 {
            return Err("p99_ms and window_ms must be positive".into());
        }
        self.tracker.set_slo(SloPolicy::target(p99_ms * 1_000));
        self.tracker.set_cadence(window_ms * 1_000, self.warehouse.obs().now_us());
        Ok(format!(
            "staleness SLO set: p99 ≤ {p99_ms}ms over {window_ms}ms windows \
             (burn-rate: warn at 2/3 bad short windows, page at 3/3 short + 6/12 long)"
        ))
    }

    fn cmd_series(&mut self, rest: &str) -> Result<String, String> {
        let (sub, arg) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
        let now = self.warehouse.obs().now_us();
        match sub {
            "" => Ok(match &self.sampler {
                Some(s) => format!(
                    "sampling every {}ms: {} window(s), {} series",
                    s.window_us() / 1_000,
                    s.windows(),
                    s.series_count()
                ),
                None => "sampling is off — start with `series on <window_ms> [cap]`".into(),
            }),
            "on" => {
                let usage = || "usage: series on <window_ms> [cap]".to_string();
                let mut parts = arg.split_whitespace();
                let window_ms: u64 =
                    parts.next().ok_or_else(usage)?.parse().map_err(|_| usage())?;
                if window_ms == 0 {
                    return Err("window_ms must be positive".into());
                }
                let cap: usize = match parts.next() {
                    Some(t) => t.parse().map_err(|_| usage())?,
                    None => 512,
                };
                let registry = self.warehouse.obs().registry();
                self.sampler = Some(Sampler::new(registry, window_ms * 1_000, cap, now));
                Ok(format!("sampling every {window_ms}ms ({cap} windows retained)"))
            }
            "off" => {
                self.sampler = None;
                Ok("sampling off".into())
            }
            "sample" => match &mut self.sampler {
                Some(s) => {
                    s.sample_now(now);
                    self.tracker.sample_now(now);
                    Ok(format!("sampled at {now}us ({} window(s))", s.windows()))
                }
                None => Err("sampling is off — start with `series on <window_ms>`".into()),
            },
            "show" => match &self.sampler {
                Some(s) => Ok(s.render_text().trim_end().to_string()),
                None => Err("sampling is off — start with `series on <window_ms>`".into()),
            },
            "dump" => {
                let path = arg.trim();
                if path.is_empty() {
                    return Err("usage: series dump <path>".into());
                }
                let Some(s) = &self.sampler else {
                    return Err("sampling is off — start with `series on <window_ms>`".into());
                };
                let mut doc = s.to_json();
                doc.push('\n');
                std::fs::write(path, doc).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                Ok(format!("{} window(s) written to {path}", s.windows()))
            }
            other => {
                Err(format!("unknown series subcommand `{other}` — on, off, sample, show or dump"))
            }
        }
    }

    fn require_init(&self) -> Result<(), String> {
        if self.initialized {
            Ok(())
        } else {
            Err("run `init` first".into())
        }
    }

    fn render_state(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "sources:");
        for s in self.port.space().servers() {
            let rels: Vec<&str> = s.catalog().relation_names().collect();
            let _ = writeln!(
                out,
                "  #{} {} v{} [{}]",
                s.id().0,
                s.name(),
                s.version(),
                rels.join(", ")
            );
        }
        let _ = writeln!(out, "views:");
        for i in 0..self.warehouse.view_count() {
            let _ = writeln!(
                out,
                "  {} [{} tuples, {} aborts]\n    {}",
                self.warehouse.view(i).name,
                self.warehouse.mv(i).len(),
                self.warehouse.stats(i).aborts,
                self.warehouse.view(i)
            );
        }
        let _ = write!(out, "scheduler: {:?}", self.warehouse.dyno_stats());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(repl: &mut Repl, cmd: &str) -> String {
        repl.execute(cmd).unwrap_or_else(|e| panic!("`{cmd}` failed: {e}"))
    }

    /// A full session: build two sources, a view, push a DU and a rename,
    /// and watch the view follow.
    #[test]
    fn end_to_end_session() {
        let mut r = Repl::new();
        ok(&mut r, "source retailer");
        ok(&mut r, "source library");
        ok(&mut r, "table 0 Item sid:int,book:str");
        ok(&mut r, "table 1 Catalog title:str,publisher:str");
        ok(&mut r, "insert 0 Item 1,Databases");
        ok(&mut r, "insert 1 Catalog Databases,Prentice");
        ok(
            &mut r,
            "view CREATE VIEW V AS SELECT Item.book, Catalog.publisher \
             FROM Item, Catalog WHERE Item.book = Catalog.title",
        );
        let init = ok(&mut r, "init");
        assert!(init.contains("[1 tuples]"), "{init}");

        ok(&mut r, "insert 1 Catalog Streams,Stanford");
        ok(&mut r, "insert 0 Item 2,Streams");
        ok(&mut r, "rename 1 Catalog Books");
        let run = ok(&mut r, "run");
        assert!(run.contains("quiesced"), "{run}");

        let show = ok(&mut r, "show");
        assert!(show.contains("V [2 tuples"), "{show}");
        assert!(show.contains("Books.title"), "view definition followed the rename: {show}");
    }

    #[test]
    fn errors_are_messages_not_panics() {
        let mut r = Repl::new();
        assert!(r.execute("bogus").is_err());
        assert!(r.execute("table 0 X a:int").unwrap_err().contains("no source #0"));
        assert!(r.execute("step").unwrap_err().contains("init"));
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        assert!(r.execute("insert 0 T notanint").unwrap_err().contains("not an int"));
        assert!(r.execute("insert 0 T 1,2").unwrap_err().contains("1 columns"));
        assert!(r.execute("view SELECT nope FROM T").is_err());
    }

    #[test]
    fn adhoc_sql_queries_current_state() {
        let mut r = Repl::new();
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int,b:str");
        ok(&mut r, "insert 0 T 1,x");
        ok(&mut r, "insert 0 T 2,y");
        let out = ok(&mut r, "sql SELECT T.b FROM T WHERE T.a >= 2");
        assert!(out.contains("'y'"));
        assert!(out.contains("1 tuple(s)"));
    }

    #[test]
    fn delete_and_show() {
        let mut r = Repl::new();
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "insert 0 T 5");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        ok(&mut r, "delete 0 T 5");
        ok(&mut r, "run");
        let show = ok(&mut r, "show");
        assert!(show.contains("W [0 tuples"), "{show}");
    }

    #[test]
    fn help_lists_every_command() {
        for cmd in [
            "source",
            "table",
            "insert",
            "delete",
            "rename",
            "dropattr",
            "view",
            "init",
            "step",
            "run",
            "sql",
            "show",
            "stats",
            "explain",
            "explain-plan",
            "profile",
            "checkpoint",
            "recover",
            "trace",
            "slo",
            "series",
            "quit",
        ] {
            assert!(Repl::help().contains(cmd), "help is missing `{cmd}`");
        }
    }

    /// `stats` snapshots the metrics registry the warehouse writes into.
    #[test]
    fn stats_reflect_maintenance_work() {
        let mut r = Repl::new();
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        ok(&mut r, "insert 0 T 1");
        ok(&mut r, "run");
        let stats = ok(&mut r, "stats");
        assert!(stats.contains("view.commits"), "{stats}");
        assert!(stats.contains("dyno.steps"), "{stats}");
        assert!(stats.contains("last_error: none"), "healthy session: {stats}");
    }

    /// The durability counters show up (zero-valued) even in a session that
    /// never attached a WAL — `wal.power_cuts: 0` is a statement, not an
    /// omission.
    #[test]
    fn stats_always_surface_durability_counters() {
        let mut r = Repl::new();
        let stats = ok(&mut r, "stats");
        for name in DURABILITY_COUNTERS.iter().chain(EXEC_COUNTERS.iter()) {
            assert!(stats.contains(name), "stats is missing `{name}`: {stats}");
        }
    }

    /// `profile on` captures per-operator plans during maintenance;
    /// `profile show` and `explain-plan <view>` render them; `profile off`
    /// stops capture but keeps what was recorded.
    #[test]
    fn profile_capture_and_explain_plan() {
        let mut r = Repl::new();
        assert!(ok(&mut r, "profile").contains("off"));
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        ok(&mut r, "profile on");
        ok(&mut r, "insert 0 T 1");
        ok(&mut r, "run");
        assert!(ok(&mut r, "profile").contains("on"));
        let show = ok(&mut r, "profile show");
        assert!(show.contains("plan W"), "SWEEP plan captured: {show}");
        assert!(show.contains("phase totals:"), "{show}");
        let plan = ok(&mut r, "explain-plan W");
        assert!(plan.contains("delta_select") || plan.contains("delta_project"), "{plan}");
        let pipeline = ok(&mut r, "explain-plan warehouse");
        assert!(pipeline.contains("classify"), "pipeline plan captured: {pipeline}");
        let err = r.execute("explain-plan NoSuch").unwrap_err();
        assert!(err.contains("no view `NoSuch`") && err.contains('W'), "{err}");
        assert!(r.execute("explain-plan").unwrap_err().contains("usage"));
        assert!(r.execute("profile bogus").is_err());
        ok(&mut r, "profile off");
        assert!(ok(&mut r, "profile show").contains("plan W"), "plans survive `off`");
    }

    /// `explain <id>` reconstructs a committed update's provenance timeline
    /// from source commit to view application.
    #[test]
    fn explain_traces_an_update_end_to_end() {
        let mut r = Repl::new();
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        let committed = ok(&mut r, "insert 0 T 7");
        // "committed u<id>@..." — pull the id out of the message.
        let id: u64 = committed
            .split('u')
            .nth(1)
            .and_then(|s| s.split('@').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no update id in `{committed}`"));
        ok(&mut r, "run");
        let out = ok(&mut r, &format!("explain {id}"));
        for hop in ["commit", "admit", "intent", "applied", "extent"] {
            assert!(out.contains(hop), "missing `{hop}` in: {out}");
        }
        // Unknown ids and junk input are messages, not panics.
        assert!(ok(&mut r, "explain 999999").contains("no lineage"));
        assert!(r.execute("explain nope").unwrap_err().contains("usage"));
    }

    /// A warehouse checkpointed to a file comes back with its extent,
    /// version vector, and pending queue after a simulated kill — even
    /// though the sources moved on in the meantime.
    #[test]
    fn checkpoint_then_recover_survives_a_kill() {
        let path = std::env::temp_dir().join("dyno_cli_recover_test.wal");
        std::fs::remove_file(&path).ok();
        let mut r = Repl::new();
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "insert 0 T 1");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        let out = ok(&mut r, &format!("checkpoint {}", path.display()));
        assert!(out.contains("checkpointed"), "{out}");
        // Committed at the source but not yet maintained — the message is
        // still parked in the port when the warehouse dies.
        ok(&mut r, "insert 0 T 2");
        assert!(ok(&mut r, "show").contains("W [1 tuples"));

        // "Kill" the warehouse: drop it, keep the sources, recover from disk.
        let port = std::mem::replace(&mut r.port, InProcessPort::new(SourceSpace::new()));
        let mut r2 = Repl::new();
        r2.port = port;
        let out = ok(&mut r2, &format!("recover {}", path.display()));
        assert!(out.contains("recovered 1 view(s)"), "{out}");
        assert!(out.contains("0 torn"), "{out}");
        ok(&mut r2, "run");
        assert!(ok(&mut r2, "show").contains("W [2 tuples"), "caught back up after recovery");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_and_recover_validate_input() {
        let mut r = Repl::new();
        assert!(r.execute("checkpoint").unwrap_err().contains("usage"));
        assert!(r.execute("recover").unwrap_err().contains("usage"));
        assert!(r.execute("checkpoint /tmp/x.wal").unwrap_err().contains("init"));
        let missing = std::env::temp_dir().join("dyno_cli_no_such.wal");
        std::fs::remove_file(&missing).ok();
        let err = r.execute(&format!("recover {}", missing.display())).unwrap_err();
        assert!(err.contains("cannot recover"), "{err}");
    }

    /// `slo` registers a lane per view at `init`, tracks commit→refresh
    /// staleness through `insert`/`run`, and renders the burn-rate status.
    #[test]
    fn slo_tracks_staleness_lanes() {
        let mut r = Repl::new();
        assert!(ok(&mut r, "slo").contains("no staleness lanes"), "empty before init");
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        let set = ok(&mut r, "slo 5000 1000");
        assert!(set.contains("p99 ≤ 5000ms"), "{set}");
        ok(&mut r, "insert 0 T 1");
        ok(&mut r, "run");
        let status = ok(&mut r, "slo");
        assert!(status.contains('W'), "lane for the view: {status}");
        assert!(status.contains("ok"), "fresh view is inside the SLO: {status}");
        assert!(r.execute("slo nope").unwrap_err().contains("usage"));
        assert!(r.execute("slo 0").unwrap_err().contains("positive"));
    }

    /// `series on` samples the registry; `sample`/`show`/`dump` expose the
    /// windows; `off` stops sampling.
    #[test]
    fn series_sampling_lifecycle() {
        let mut r = Repl::new();
        assert!(ok(&mut r, "series").contains("off"));
        assert!(r.execute("series show").is_err(), "show requires sampling on");
        assert!(r.execute("series on").unwrap_err().contains("usage"));
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        ok(&mut r, "series on 1000 64");
        ok(&mut r, "insert 0 T 1");
        ok(&mut r, "run");
        let sampled = ok(&mut r, "series sample");
        assert!(sampled.contains("window"), "{sampled}");
        let show = ok(&mut r, "series show");
        assert!(show.contains("view.commits"), "maintenance series present: {show}");
        let path = std::env::temp_dir().join("dyno_cli_series_test.json");
        let dump = ok(&mut r, &format!("series dump {}", path.display()));
        assert!(dump.contains("written"), "{dump}");
        let body = std::fs::read_to_string(&path).expect("dump file exists");
        std::fs::remove_file(&path).ok();
        assert!(body.contains("\"series\""), "{body}");
        ok(&mut r, "series off");
        assert!(ok(&mut r, "series").contains("off"));
        assert!(r.execute("series bogus").is_err());
    }

    /// `trace on` captures spans; `trace dump` writes them as JSONL;
    /// `trace off` stops capture.
    #[test]
    fn trace_toggle_and_dump() {
        let mut r = Repl::new();
        assert!(ok(&mut r, "trace").contains("off"));
        ok(&mut r, "trace on");
        assert!(ok(&mut r, "trace").contains("on"));
        ok(&mut r, "source s0");
        ok(&mut r, "table 0 T a:int");
        ok(&mut r, "view CREATE VIEW W AS SELECT T.a FROM T");
        ok(&mut r, "init");
        ok(&mut r, "insert 0 T 3");
        ok(&mut r, "run");
        let path = std::env::temp_dir().join("dyno_cli_trace_test.jsonl");
        let dump = ok(&mut r, &format!("trace dump {}", path.display()));
        assert!(dump.contains("written"), "{dump}");
        let body = std::fs::read_to_string(&path).expect("dump file exists");
        std::fs::remove_file(&path).ok();
        assert!(body.lines().count() > 0, "trace must not be empty");
        assert!(body.contains("\"view.maintain\""), "{body}");
        ok(&mut r, "trace off");
        assert!(ok(&mut r, "trace").contains("off"));
        assert!(r.execute("trace bogus").is_err());
        assert!(r.execute("trace dump").is_err());
    }
}
