//! `cube_query`: store-backed OLAP queries through one `StoreBackedCube`
//! session, in a closed loop on one thread.
//!
//! Set-up stores a full week of the seeded feed on disk, drops the store
//! and opens the session on a fresh reopen. Each round runs point, range
//! and group-by queries in fixed proportions; every answer is compared
//! with a scan over the facts the oracle read from the feed text.

use crate::feed::{bike_feed, Facts, Pick, Rng, AREA, DIMS, HOUR};
use crate::report::{
    median, micros, quantile, ratio, Delta, HostSpeed, Outcome, Scale, Times, Tracer,
};
use crate::Args;
use sc_core::models::{NosqlDwarfModel, SchemaModel};
use sc_core::{MappedDwarf, StoreBackedCube};
use sc_datagen::BikesGenerator;
use sc_dwarf::source::{
    group_by_over, point_over, range_over, CowNode, NodeSource, OwnedCell, OwnedNode, SourceNodeId,
};
use sc_dwarf::{AggFn, RangeSel, Selection};
use sc_ingest::StreamPipeline;
use sc_nosql::cql::ast::{SelectColumns, Statement, TableRef, WhereClause};
use sc_nosql::{CqlValue, Db};
use sc_storage::Vfs;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The paper's Week dataset: 60 102 observations over seven days.
const DAYS: i64 = 7;
const FACTS: usize = 60_102;
const SETUPS: usize = 3;
/// Reopens per set-up; `restart_s` is their median.
const REOPENS: usize = 5;
/// One round, in order: six point queries, one range, one group-by.
const ROUND: [Kind; 8] = [
    Kind::Point,
    Kind::Point,
    Kind::Range,
    Kind::Point,
    Kind::Point,
    Kind::GroupBy,
    Kind::Point,
    Kind::Point,
];
/// Rounds run (and checked) before timing starts, so the node cache has
/// left its empty state.
const WARMUP_ROUNDS: usize = 25;
/// Rounds the traced run replays statement by statement.
const REPLAY_ROUNDS: usize = 40;
/// The groupings a group-by query draws from.
const GROUPINGS: [&[&str]; 8] = [
    &["hour"],
    &["area"],
    &["station"],
    &["status"],
    &["day"],
    &["day", "area"],
    &["hour", "area"],
    &["area", "status"],
];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Point,
    Range,
    GroupBy,
}

/// One generated query with the oracle's answer.
enum Query {
    Point(Vec<Selection>, Option<i64>),
    Range(Vec<RangeSel>, Option<i64>),
    GroupBy(Vec<&'static str>, Vec<(Vec<String>, i64)>),
}

impl Query {
    fn generate(kind: Kind, facts: &Facts, rng: &mut Rng) -> Query {
        match kind {
            Kind::Point => {
                let (key, _) = facts.rows[rng.below(facts.rows.len())];
                let mut picks = [Pick::All; 8];
                let mut sel = vec![Selection::All; 8];
                for d in 0..8 {
                    if !rng.chance(0.15) {
                        picks[d] = Pick::Eq(key[d]);
                        sel[d] = Selection::value(&facts.values[d][key[d] as usize]);
                    }
                }
                Query::Point(sel, facts.aggregate(&picks))
            }
            Kind::Range => {
                let mut picks = [Pick::All; 8];
                let mut sel = vec![RangeSel::All; 8];
                for (d, width) in [(HOUR, 6), (AREA, 3)] {
                    let n = facts.values[d].len();
                    let lo = rng.below(n);
                    let hi = (lo + rng.below(width)).min(n - 1);
                    picks[d] = Pick::Between(lo as u32, hi as u32);
                    sel[d] = RangeSel::between(&facts.values[d][lo], &facts.values[d][hi]);
                }
                Query::Range(sel, facts.aggregate(&picks))
            }
            Kind::GroupBy => {
                let dims = GROUPINGS[rng.below(GROUPINGS.len())].to_vec();
                let mut mask = [false; 8];
                for d in &dims {
                    mask[DIMS.iter().position(|x| x == d).expect("known dimension")] = true;
                }
                Query::GroupBy(dims, facts.group_by(&mask))
            }
        }
    }

    fn span(&self) -> &'static str {
        match self {
            Query::Point(..) => "core.query.point",
            Query::Range(..) => "core.query.range",
            Query::GroupBy(..) => "core.query.group_by",
        }
    }
}

/// The generated queries of `rounds` rounds, in run order.
fn queries(seed: u64, facts: &Facts, rounds: usize) -> impl Iterator<Item = Query> + '_ {
    let mut rng = Rng::new(seed ^ 0x0C0B_E0C0);
    (0..rounds)
        .flat_map(|_| ROUND)
        .map(move |k| Query::generate(k, facts, &mut rng))
}

/// What a query returned.
enum Answer<E> {
    Value(Result<Option<i64>, E>),
    Groups(Result<Vec<(Vec<String>, i64)>, E>),
}

/// Checks an answer to `q` against the oracle's, and a group-by's groups
/// against the grand total.
fn check<E: std::fmt::Debug>(out: &mut Outcome, q: &Query, got: Answer<E>, total: i64) {
    match (q, got) {
        (Query::GroupBy(dims, want), Answer::Groups(got)) => {
            let ok = got.as_ref().is_ok_and(|g| g == want);
            out.check(ok, || format!("group_by {dims:?}: got {got:?}"));
            let sum: Option<i64> = got.ok().map(|g| g.iter().map(|(_, m)| m).sum());
            out.check(sum == Some(total), || {
                format!("group_by {dims:?} sums to {sum:?}, not the grand total {total}")
            });
        }
        (Query::Point(_, want) | Query::Range(_, want), Answer::Value(got)) => {
            let ok = got.as_ref().is_ok_and(|g| g == want);
            out.check(ok, || format!("{}: got {got:?}, want {want:?}", q.span()));
        }
        _ => unreachable!("an answer has its query's kind"),
    }
}

/// A stored week, reopened `REOPENS` times.
struct Stored {
    model: NosqlDwarfModel,
    schema_id: i64,
    bytes: u64,
    /// `(at, seconds)` of every reopen.
    restarts: Vec<(f64, f64)>,
    /// Registry deltas across the last reopen.
    restart_delta: Delta,
    cells: usize,
}

/// Stores the feed on a fresh disk store, then drops and reopens it
/// `REOPENS` times, timing each reopen.
fn store_feed(docs: &[String], dir: &Path, hs: &mut HostSpeed) -> Stored {
    let mut pipeline = StreamPipeline::new(BikesGenerator::cube_def());
    for (i, doc) in docs.iter().enumerate() {
        if i % 8 == 0 {
            hs.sample(1);
        }
        pipeline.ingest(doc).expect("generated feed parses");
    }
    let cube = pipeline.build_cube();
    hs.sample(3);
    let mut model = NosqlDwarfModel::open(Vfs::disk(dir).expect("disk vfs")).expect("open");
    model.create_schema().expect("create schema");
    let report = model
        .store(&MappedDwarf::new(&cube), &cube, false)
        .expect("store the cube");
    let mut restarts = Vec::new();
    let mut restart_delta = None;
    for _ in 0..REOPENS {
        drop(model);
        hs.sample(3);
        let before = Delta::start();
        let (at, t) = (hs.now(), Instant::now());
        model = NosqlDwarfModel::open(Vfs::disk(dir).expect("disk vfs")).expect("reopen");
        restarts.push((at, t.elapsed().as_secs_f64()));
        restart_delta = Some(Delta::since(before));
    }
    hs.sample(3);
    Stored {
        model,
        schema_id: report.schema_id,
        bytes: report.size.as_bytes(),
        restarts,
        restart_delta: restart_delta.expect("at least one reopen"),
        cells: cube.cell_count(),
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut hs = HostSpeed::new();
    let (mut setups, mut restarts, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = args.data.join(format!("cube-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        hs.sample(3);
        let (at, t) = (hs.now(), Instant::now());
        let docs = bike_feed(args.seed, DAYS, FACTS);
        let mut stored = store_feed(&docs, &dir, &mut hs);
        StoreBackedCube::open(&mut stored.model, stored.schema_id).expect("open session");
        setups.push((at, t.elapsed().as_secs_f64()));
        // The oracle reads the feed outside the timed set-up.
        let facts = Facts::read(&docs);
        restarts.extend(&stored.restarts);
        bytes.push(stored.bytes as f64 / facts.feed_facts as f64);
        if let Some((old_dir, ..)) = kept.replace((dir, facts, stored)) {
            let _ = std::fs::remove_dir_all(old_dir);
        }
    }
    // The last set-up's store was freshly reopened; the measured session
    // starts on it.
    let (dir, facts, mut stored) = kept.expect("at least one set-up");
    let schema_id = stored.schema_id;
    let mut tracer = Tracer::new(args.trace);
    // `(at, us)` per query and per round.
    let (mut queries_us, mut rounds_us) = (Vec::new(), Vec::new());
    let (stats, delta) = {
        let mut session =
            StoreBackedCube::open(&mut stored.model, schema_id).expect("open session");
        let mut gen = queries(args.seed, &facts, usize::MAX);
        for _ in 0..WARMUP_ROUNDS * ROUND.len() {
            let q = gen.next().expect("endless queries");
            let got = ask(&mut session, &q);
            check(&mut out, &q, got, facts.total);
        }
        session.reset_stats();
        let before = Delta::start();
        let deadline = Instant::now() + Duration::from_secs(args.seconds);
        while rounds_us.is_empty() || Instant::now() < deadline {
            hs.sample(1);
            let at = hs.now();
            let mut busy = 0.0;
            for _ in 0..ROUND.len() {
                let q = gen.next().expect("endless queries");
                // The span's own cost is inside the timed interval, so the
                // traced run's latency shows the tracing overhead.
                let t = Instant::now();
                let span = tracer.begin(q.span());
                let got = ask(&mut session, &q);
                tracer.end(span);
                let us = micros(t.elapsed());
                check(&mut out, &q, got, facts.total);
                queries_us.push((at, us));
                busy += us;
            }
            rounds_us.push((at, busy));
        }
        (session.stats(), Delta::since(before))
    };
    let (get_us, get_in_us) = if args.trace {
        replay(
            args.seed,
            &facts,
            stored.model.db_mut(),
            schema_id,
            &mut out,
            &mut hs,
        )
    } else {
        (0.0, 0.0)
    };

    // Every duration is scaled to the reference host speed at the time it
    // was measured (see `HostSpeed`); `raw` holds the figures unscaled.
    let n = queries_us.len() as f64;
    let busy_us: f64 = queries_us.iter().map(|q| q.1).sum();
    let times = |scale: &Scale| {
        let round_us = scale.sorted(rounds_us.iter().copied());
        Times {
            setup_s: scale.median_span(setups.iter().copied()),
            per_s: ROUND.len() as f64 / quantile(&round_us, 0.5) * 1e6,
            latency_us: scale.sorted(queries_us.iter().copied()),
            restart_s: scale.median_span(restarts.iter().copied()),
        }
    };
    let scale = hs.scale();
    let (t, raw) = (times(&scale), times(&Scale::none()));
    let latency_us = &t.latency_us;
    println!(
        "cube_query: {} timed rounds ({n} queries) after {WARMUP_ROUNDS} warm-up rounds; \
         {} aggregated facts, store {} B, host-speed factor {:.3}",
        rounds_us.len(),
        facts.rows.len(),
        stored.bytes,
        scale.whole
    );
    println!("  olap_p50_us = {:.1} us", quantile(latency_us, 0.50));
    println!("  olap_p99_us = {:.1} us", quantile(latency_us, 0.99));
    println!("  olap_queries_per_s = {:.1} queries/s", t.per_s);
    if args.trace {
        tracer.summary();
        out.metric("trace.p50_us", quantile(latency_us, 0.50), "us");
        out.metric("dwarf.cells", stored.cells as f64, "count");
        out.metric("core.node_cache_hit_ratio", stats.hit_ratio(), "ratio");
        out.metric(
            "core.selects_per_query",
            stats.store_selects as f64 / n,
            "count",
        );
        out.metric(
            "core.rows_per_query",
            stats.rows_fetched as f64 / n,
            "count",
        );
        out.metric(
            "core.fetch_share",
            delta.hist("core.store_query.fetch_ns").1 / 1e3 / busy_us,
            "ratio",
        );
        out.metric("nosql.get_us", get_us * scale.whole, "us");
        out.metric("nosql.get_in_us", get_in_us * scale.whole, "us");
        out.metric(
            "nosql.blocks_per_get",
            delta.hist_mean("nosql.read.blocks_per_get"),
            "count",
        );
        out.metric(
            "nosql.sstables_per_get",
            delta.hist_mean("nosql.read.sstables_per_get"),
            "count",
        );
        out.metric(
            "nosql.block_cache_hit_ratio",
            delta.hit_ratio("nosql.block_cache.hit", "nosql.block_cache.miss"),
            "ratio",
        );
        let restart = &stored.restart_delta;
        out.metric(
            "nosql.replayed_records",
            restart.counter("nosql.recovery.replayed_records"),
            "count",
        );
        out.metric(
            "storage.restart_read_bytes",
            restart.counter("storage.vfs.read_bytes"),
            "B",
        );
        out.metric(
            "storage.read_bytes_per_query",
            delta.counter("storage.vfs.read_bytes") / n,
            "B",
        );
    } else {
        out.end_to_end(&t, &raw, median(&mut bytes));
    }
    drop(stored);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Runs one query through the session.
fn ask(session: &mut StoreBackedCube<'_>, q: &Query) -> Answer<sc_core::CoreError> {
    match q {
        Query::Point(sel, _) => Answer::Value(session.point(sel)),
        Query::Range(sel, _) => Answer::Value(session.range(sel)),
        Query::GroupBy(dims, _) => Answer::Groups(session.group_by(dims)),
    }
}

/// Replays the session's statements — the pk-Eq node read and the pk-IN
/// cell batch of every node-cache miss — through `Db::execute`, timing each
/// one. Returns the mean pk-Eq and pk-IN latencies in microseconds.
fn replay(
    seed: u64,
    facts: &Facts,
    db: &mut Db,
    schema_id: i64,
    out: &mut Outcome,
    hs: &mut HostSpeed,
) -> (f64, f64) {
    let mut src = ReplaySource::open(db, schema_id);
    for (i, q) in queries(seed, facts, WARMUP_ROUNDS + REPLAY_ROUNDS).enumerate() {
        if i % ROUND.len() == 0 {
            hs.sample(1);
        }
        let got = match &q {
            Query::Point(sel, _) => Answer::Value(point_over(&mut src, sel)),
            Query::Range(sel, _) => Answer::Value(range_over(&mut src, sel)),
            Query::GroupBy(dims, _) => {
                let mask: Vec<bool> = DIMS.iter().map(|d| dims.contains(d)).collect();
                Answer::Groups(group_by_over(&mut src, &mask))
            }
        };
        check(out, &q, got, facts.total);
    }
    (
        ratio(micros(src.get.1), src.get.0 as f64),
        ratio(micros(src.get_in.1), src.get_in.0 as f64),
    )
}

/// A node source issuing the same statements as the session's
/// `StoreNodeSource`, with a node cache of the same capacity, that times
/// every `Db::execute`.
struct ReplaySource<'a> {
    db: &'a mut Db,
    root: i64,
    cache: HashMap<i64, (Rc<OwnedNode>, u64)>,
    tick: u64,
    get: (u64, Duration),
    get_in: (u64, Duration),
}

const NODE_CACHE: usize = sc_core::node_source::DEFAULT_NODE_CACHE_CAPACITY;

fn table(name: &str) -> TableRef {
    TableRef {
        keyspace: "smartcity".into(),
        table: name.into(),
    }
}

impl<'a> ReplaySource<'a> {
    fn open(db: &'a mut Db, schema_id: i64) -> ReplaySource<'a> {
        let r = db
            .execute(&Statement::select(
                table("dwarf_schema"),
                SelectColumns::named(["entry_node_id"]),
                Some(WhereClause::eq("id", CqlValue::Int(schema_id))),
                None,
            ))
            .expect("schema row");
        let root = r
            .first()
            .expect("stored schema")
            .get_int("entry_node_id")
            .expect("entry");
        ReplaySource {
            db,
            root,
            cache: HashMap::new(),
            tick: 0,
            get: (0, Duration::ZERO),
            get_in: (0, Duration::ZERO),
        }
    }

    fn timed(&mut self, stmt: &Statement, in_list: bool) -> sc_nosql::QueryResult {
        let t = Instant::now();
        let r = self.db.execute(stmt).expect("replayed statement");
        let slot = if in_list {
            &mut self.get_in
        } else {
            &mut self.get
        };
        slot.0 += 1;
        slot.1 += t.elapsed();
        r
    }

    fn fetch(&mut self, id: i64) -> OwnedNode {
        let r = self.timed(
            &Statement::select(
                table("dwarf_node"),
                SelectColumns::named(["childrenIds"]),
                Some(WhereClause::eq("id", CqlValue::Int(id))),
                None,
            ),
            false,
        );
        let children: Vec<CqlValue> = r
            .first()
            .expect("node row")
            .get_int_set("childrenIds")
            .expect("children")
            .iter()
            .map(|&c| CqlValue::Int(c))
            .collect();
        if children.is_empty() {
            return OwnedNode::from_cells(Vec::new(), None, 0);
        }
        let r = self.timed(
            &Statement::select(
                table("dwarf_cell"),
                SelectColumns::named(["key", "measure", "pointerNode"]),
                Some(WhereClause::any_of("id", children)),
                None,
            ),
            true,
        );
        let mut cells = Vec::new();
        let mut all = (None, 0);
        for row in r.rows() {
            let key = row.get_text("key").expect("key");
            let measure = row.get_int("measure").expect("measure");
            let child = row.get_opt_int("pointerNode").expect("pointer");
            if key == sc_core::ALL_KEY {
                all = (child, measure);
            } else {
                cells.push(OwnedCell {
                    key: key.to_string(),
                    measure,
                    child,
                });
            }
        }
        OwnedNode::from_cells(cells, all.0, all.1)
    }
}

impl NodeSource<'static> for ReplaySource<'_> {
    type Err = std::convert::Infallible;

    fn num_dims(&self) -> usize {
        8
    }

    fn agg(&self) -> AggFn {
        AggFn::Sum
    }

    fn root(&self) -> Option<SourceNodeId> {
        Some(self.root)
    }

    fn node(&mut self, id: SourceNodeId) -> Result<CowNode<'static>, Self::Err> {
        self.tick += 1;
        let tick = self.tick;
        if let Some((node, stamp)) = self.cache.get_mut(&id) {
            *stamp = tick;
            return Ok(CowNode::Owned(node.clone()));
        }
        let node = Rc::new(self.fetch(id));
        if self.cache.len() >= NODE_CACHE {
            if let Some(lru) = self
                .cache
                .iter()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(&k, _)| k)
            {
                self.cache.remove(&lru);
            }
        }
        self.cache.insert(id, (node.clone(), tick));
        Ok(CowNode::Owned(node))
    }
}
