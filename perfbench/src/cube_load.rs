//! `cube_load`: the paper's Table 4/5 path, repeated in a closed loop.
//!
//! One cycle takes the seeded XML feed through `StreamPipeline::ingest`,
//! `build_cube`, `MappedDwarf::new` and `NosqlDwarfModel::store` on a fresh
//! disk-backed `Vfs`, drops the store, reopens it with
//! `NosqlDwarfModel::open` and reads the whole cube back with `rebuild`.
//! The rebuilt cube must equal the facts the oracle read from the feed
//! text.

use crate::feed::{bike_feed, Facts};
use crate::report::{micros, quantile, ratio, Delta, HostSpeed, Outcome, Scale, Times, Tracer};
use crate::Args;
use sc_core::models::{NosqlDwarfModel, SchemaModel};
use sc_core::MappedDwarf;
use sc_datagen::BikesGenerator;
use sc_dwarf::{Dwarf, Selection};
use sc_ingest::StreamPipeline;
use sc_storage::Vfs;
use std::path::Path;
use std::time::{Duration, Instant};

/// Two days of the 97-station feed: 17 170 observations, 178 documents.
const DAYS: i64 = 2;
const FACTS: usize = 17_170;
const SETUPS: usize = 5;
/// The host-speed kernel runs once per this many ingested documents.
const SAMPLE_EVERY_DOCS: usize = 4;

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut hs = HostSpeed::new();
    // Set-up renders the feed (sc-datagen) and opens a fresh store with its
    // schema (sc-core, sc-nosql, sc-storage): the program's work before the
    // first load. The oracle's reading of the feed is not timed.
    let mut setups = Vec::new();
    let mut docs = Vec::new();
    for i in 0..SETUPS {
        let dir = args.data.join(format!("setup-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        hs.sample(3);
        let (at, t) = (hs.now(), Instant::now());
        let feed = bike_feed(args.seed, DAYS, FACTS);
        let mut model =
            NosqlDwarfModel::open(Vfs::disk(&dir).expect("disk vfs")).expect("open store");
        model.create_schema().expect("create schema");
        drop(model);
        setups.push((at, t.elapsed().as_secs_f64()));
        docs = feed;
        let _ = std::fs::remove_dir_all(&dir);
    }
    hs.sample(3);
    let facts = Facts::read(&docs);
    let expected = facts.string_rows();

    let mut tracer = Tracer::new(args.trace);
    let mut layers = LayerTotals::default();
    let mut cycles = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while cycles.is_empty() || Instant::now() < deadline {
        let dir = args.data.join(format!("load-{}", cycles.len()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = load_cycle(&docs, &dir, &mut tracer, &mut hs, &mut layers);
        let _ = std::fs::remove_dir_all(&dir);
        check_cycle(&mut out, &c, &facts, &expected);
        cycles.push(c);
    }

    // Every duration is scaled to the reference host speed at the time it
    // was measured (see `HostSpeed`); `raw` holds the figures unscaled.
    let n = cycles.len() as f64;
    let times = |scale: &Scale| -> (Times, f64) {
        let load_s = scale.median_span(cycles.iter().map(|c| (c.start, c.stored)));
        let times = Times {
            setup_s: scale.median_span(setups.iter().copied()),
            per_s: facts.feed_facts as f64 / load_s,
            latency_us: scale.sorted(cycles.iter().flat_map(|c| c.ingest_us.iter().copied())),
            restart_s: scale.median_span(cycles.iter().map(|c| c.restart)),
        };
        (times, scale.median_span(cycles.iter().map(|c| c.rebuild)))
    };
    let scale = hs.scale();
    let ((t, rebuild_s), (raw, _)) = (times(&scale), times(&Scale::none()));
    let bytes_per_fact = layers.stored_bytes / n / facts.feed_facts as f64;
    println!(
        "cube_load: {n} cycles of {} documents, {} feed facts -> {} aggregated facts, \
         host-speed factor {:.3}",
        docs.len(),
        facts.feed_facts,
        facts.rows.len(),
        scale.whole
    );
    println!("  load_facts_per_s = {:.1} facts/s", t.per_s);
    println!("  stored_bytes_per_fact = {bytes_per_fact:.3} B/fact");
    println!(
        "  ingest_p50_us = {:.1} us, ingest_p99_us = {:.1} us per document",
        quantile(&t.latency_us, 0.5),
        quantile(&t.latency_us, 0.99)
    );
    println!("  restart_s = {:.6} s", t.restart_s);
    println!("  rebuild_s = {rebuild_s:.6} s");
    if args.trace {
        tracer.summary();
        let per = |v: f64| v / n;
        let secs = |span: &str| tracer.total(span).1.as_secs_f64() * scale.whole / n;
        out.metric("trace.p50_us", quantile(&t.latency_us, 0.50), "us");
        out.metric("ingest.extract_s", secs("ingest"), "s");
        out.metric("dwarf.build_s", secs("build_cube"), "s");
        out.metric("dwarf.cells", per(layers.cells), "count");
        out.metric("core.map_s", secs("map"), "s");
        out.metric("core.store_s", secs("store"), "s");
        out.metric("core.rebuild_s", rebuild_s, "s");
        out.metric(
            "nosql.wal_bytes_per_fact",
            per(layers.wal_bytes) / facts.feed_facts as f64,
            "B/fact",
        );
        out.metric("nosql.flushes", per(layers.flushes), "count");
        out.metric("nosql.compactions", per(layers.compactions), "count");
        out.metric(
            "nosql.compaction_s",
            per(layers.compaction_ns) / 1e9 * scale.whole,
            "s",
        );
        out.metric(
            "nosql.compaction_bytes_in",
            per(layers.compaction_bytes_in),
            "B",
        );
        out.metric("nosql.replayed_records", per(layers.replayed), "count");
        out.metric(
            "nosql.cols_pruned_ratio",
            ratio(layers.cols_skipped, layers.cols_skipped + layers.cols_read),
            "ratio",
        );
        out.metric(
            "storage.write_amp",
            ratio(layers.appended_bytes, layers.stored_bytes),
            "ratio",
        );
        out.metric(
            "storage.restart_read_bytes",
            per(layers.restart_read_bytes),
            "B",
        );
    } else {
        out.end_to_end(&t, &raw, bytes_per_fact);
    }
    out
}

fn check_cycle(out: &mut Outcome, c: &Cycle, facts: &Facts, expected: &[(Vec<String>, i64)]) {
    out.check(c.store_error.is_none(), || {
        format!("store failed: {:?}", c.store_error)
    });
    let rows = c.rebuilt.as_ref().map(Dwarf::extract_tuples);
    out.check(rows.as_deref() == Some(expected), || {
        format!(
            "rebuilt cube holds {:?} facts, the feed aggregates to {}",
            rows.as_ref().map(Vec::len),
            expected.len()
        )
    });
    let all = c
        .rebuilt
        .as_ref()
        .and_then(|cube| cube.point(&vec![Selection::All; 8]));
    out.check(all == Some(facts.total), || {
        format!("all-ALL point {all:?} != grand total {}", facts.total)
    });
    let by_hour: Option<i64> = c
        .rebuilt
        .as_ref()
        .and_then(|cube| cube.group_by(&["hour"]))
        .map(|groups| groups.iter().map(|(_, m)| m).sum());
    out.check(by_hour == Some(facts.total), || {
        format!("group_by(hour) sums to {by_hour:?}, not {}", facts.total)
    });
}

/// Per-layer sums over every cycle, taken from `sc_obs` registry deltas.
#[derive(Debug, Default)]
struct LayerTotals {
    cells: f64,
    wal_bytes: f64,
    flushes: f64,
    compactions: f64,
    compaction_ns: f64,
    compaction_bytes_in: f64,
    appended_bytes: f64,
    stored_bytes: f64,
    replayed: f64,
    restart_read_bytes: f64,
    cols_read: f64,
    cols_skipped: f64,
}

/// One load cycle's measurements, in seconds; `start` and the first
/// element of each `(at, seconds)` pair are run time (see `HostSpeed`).
struct Cycle {
    start: f64,
    /// `(at, us)` of every `StreamPipeline::ingest` call.
    ingest_us: Vec<(f64, f64)>,
    /// When the store was flushed and sized, from cycle start.
    stored: f64,
    store_error: Option<String>,
    restart: (f64, f64),
    rebuild: (f64, f64),
    rebuilt: Option<Dwarf>,
}

fn load_cycle(
    docs: &[String],
    dir: &Path,
    tr: &mut Tracer,
    hs: &mut HostSpeed,
    layers: &mut LayerTotals,
) -> Cycle {
    let before = Delta::start();
    let start = hs.now();
    let t0 = Instant::now();
    let cycle_span = tr.begin("load");
    let mut pipeline = StreamPipeline::new(BikesGenerator::cube_def());
    let mut ingest_us = Vec::with_capacity(docs.len());
    for (i, doc) in docs.iter().enumerate() {
        if i % SAMPLE_EVERY_DOCS == 0 {
            hs.sample(1);
        }
        let (at, t) = (hs.now(), Instant::now());
        tr.time("ingest", || pipeline.ingest(doc))
            .expect("generated feed parses");
        ingest_us.push((at, micros(t.elapsed())));
    }
    let cube = tr.time("build_cube", || pipeline.build_cube());
    let mapped = tr.time("map", || MappedDwarf::new(&cube));
    let mut model = NosqlDwarfModel::open(Vfs::disk(dir).expect("disk vfs")).expect("open store");
    let stored = tr.time("store", || {
        model.create_schema()?;
        model.store(&mapped, &cube, false)
    });
    let stored_at = t0.elapsed().as_secs_f64();
    tr.end(cycle_span);
    let d = Delta::since(before);
    layers.cells += d.counter("dwarf.build.cells");
    layers.wal_bytes += d.counter("nosql.commitlog.append_bytes");
    layers.flushes += d.hist("nosql.flush.duration_ns").0;
    layers.compactions += d.hist("nosql.compaction.duration_ns").0;
    layers.compaction_ns += d.hist("nosql.compaction.duration_ns").1;
    layers.compaction_bytes_in += d.counter("nosql.compaction.bytes_in");
    layers.appended_bytes += d.counter("storage.vfs.append_bytes");
    drop(model);
    hs.sample(3);

    let (schema_id, store_error) = match &stored {
        Ok(r) => {
            layers.stored_bytes += r.size.as_bytes() as f64;
            (r.schema_id, None)
        }
        Err(e) => (0, Some(e.to_string())),
    };
    let before = Delta::start();
    let (at, t) = (hs.now(), Instant::now());
    let reopened = tr.time("reopen", || {
        NosqlDwarfModel::open(Vfs::disk(dir).expect("disk vfs"))
    });
    let restart = (at, t.elapsed().as_secs_f64());
    let d = Delta::since(before);
    layers.replayed += d.counter("nosql.recovery.replayed_records");
    layers.restart_read_bytes += d.counter("storage.vfs.read_bytes");
    hs.sample(3);

    let before = Delta::start();
    let (at, t) = (hs.now(), Instant::now());
    let rebuilt = reopened
        .ok()
        .and_then(|mut m| tr.time("rebuild", || m.rebuild(schema_id)).ok());
    let rebuild = (at, t.elapsed().as_secs_f64());
    let d = Delta::since(before);
    layers.cols_read += d.counter("nosql.read.cols_read");
    layers.cols_skipped += d.counter("nosql.read.cols_skipped");
    hs.sample(3);
    Cycle {
        start,
        ingest_us,
        stored: stored_at,
        store_error,
        restart,
        rebuild,
        rebuilt,
    }
}
