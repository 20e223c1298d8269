//! `serve_mix`: a read/write mix served by `sc-server` over loopback.
//!
//! Set-up preloads a sensor-readings table on a disk store in four
//! flushed batches, reopens it and starts the server. Then one connection
//! runs a closed loop of reads (point SELECTs, pk-range predicates,
//! `LIMIT 10` and a `GROUP BY` with `SUM`/`COUNT`, all over the preloaded
//! ids) while a second connection inserts fresh readings at a fixed rate as
//! an open loop. Every returned row is compared with the row the benchmark
//! generated for its id; range and group answers with sums over the
//! preloaded ids.

use crate::feed::Rng;
use crate::report::{
    median, micros, quantile, ratio, Delta, HostSpeed, Outcome, Scale, Times, Tracer,
};
use crate::Args;
use sc_nosql::{CqlValue, OpenOptions, QueryResult, QueryRow, SharedDb};
use sc_server::{Client, Server, ServerConfig};
use sc_storage::Vfs;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Preloaded readings (ids `0..PRELOAD`), written in `BATCHES` flushed runs.
const PRELOAD: i64 = 8_000;
const BATCHES: i64 = 4;
const SETUPS: usize = 5;
/// Reopens per set-up; `restart_s` is their median.
const REOPENS: usize = 5;
/// Rows a range read asks for.
const RANGE_ROWS: i64 = 50;
/// The writer's schedule: one insert every `INSERT_EVERY`.
const INSERT_EVERY: Duration = Duration::from_millis(5);
const KINDS: [&str; 5] = ["no2", "pm10", "o3", "noise", "temp"];
const TENANT: &str = "bench";
const TOKEN: &str = "bench-token";
/// The tenant's keyspace as the engine stores it.
const PHYSICAL: &str = "bench__city";

/// One round of reads, in order.
const ROUND: [Read; 19] = [
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Range,
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Limit,
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Point,
    Read::Aggregate,
    Read::Point,
    Read::Point,
    Read::Point,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Read {
    Point,
    Range,
    Limit,
    Aggregate,
}

impl Read {
    const ALL: [Read; 4] = [Read::Point, Read::Range, Read::Limit, Read::Aggregate];

    fn name(self) -> &'static str {
        match self {
            Read::Point => "point",
            Read::Range => "range",
            Read::Limit => "limit",
            Read::Aggregate => "aggregate",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Read::Point => "wire.point",
            Read::Range => "wire.range",
            Read::Limit => "wire.limit",
            Read::Aggregate => "wire.aggregate",
        }
    }
}

/// The reading the benchmark generates for `id`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Reading {
    sensor: String,
    kind: &'static str,
    value: i64,
}

fn reading(seed: u64, id: i64) -> Reading {
    let h = Rng::new(seed ^ (id as u64).wrapping_mul(0x9E37_79B9)).next_u64();
    Reading {
        sensor: format!("sensor-{:03}", h % 400),
        kind: KINDS[((h >> 16) % KINDS.len() as u64) as usize],
        value: ((h >> 32) % 1000) as i64,
    }
}

fn insert_cql(keyspace: &str, seed: u64, id: i64) -> String {
    let r = reading(seed, id);
    format!(
        "INSERT INTO {keyspace}.readings (id, sensor, kind, value) VALUES ({id}, '{}', '{}', {})",
        r.sensor, r.kind, r.value
    )
}

/// Generates the statement texts of one kind of read.
struct Mix {
    rng: Rng,
}

impl Mix {
    fn cql(&mut self, read: Read, keyspace: &str) -> (String, i64) {
        let cols = "id, sensor, kind, value";
        match read {
            Read::Point => {
                let id = self.rng.below(PRELOAD as usize) as i64;
                (
                    format!("SELECT {cols} FROM {keyspace}.readings WHERE id = {id}"),
                    id,
                )
            }
            Read::Range => {
                let lo = self.rng.below((PRELOAD - RANGE_ROWS) as usize) as i64;
                let hi = lo + RANGE_ROWS;
                (
                    format!(
                        "SELECT {cols} FROM {keyspace}.readings WHERE id >= {lo} AND id < {hi}"
                    ),
                    lo,
                )
            }
            Read::Limit => {
                let lo = self.rng.below((PRELOAD - 10) as usize) as i64;
                (
                    format!(
                        "SELECT {cols} FROM {keyspace}.readings WHERE id >= {lo} AND id < {PRELOAD} LIMIT 10"
                    ),
                    lo,
                )
            }
            Read::Aggregate => (
                format!(
                    "SELECT kind, COUNT(*), SUM(value) FROM {keyspace}.readings \
                     WHERE id < {PRELOAD} GROUP BY kind"
                ),
                0,
            ),
        }
    }
}

/// The expected `(COUNT, SUM)` per kind over the preloaded ids.
fn kind_totals(seed: u64) -> BTreeMap<&'static str, (i64, i64)> {
    let mut totals = BTreeMap::new();
    for id in 0..PRELOAD {
        let r = reading(seed, id);
        let e = totals.entry(r.kind).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.value;
    }
    totals
}

/// Checks the rows of one read; returns the number of rows returned.
fn check_read(
    out: &mut Outcome,
    seed: u64,
    read: Read,
    arg: i64,
    got: Result<QueryResult, String>,
    totals: &BTreeMap<&'static str, (i64, i64)>,
) -> usize {
    let rows = match got {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("{} read failed: {e}", read.name()));
            return 0;
        }
    };
    let n = rows.len();
    let ok = match read {
        Read::Aggregate => {
            let mut seen = BTreeMap::new();
            for row in rows.rows() {
                if let [CqlValue::Text(k), CqlValue::Int(c), CqlValue::Int(s)] = row.values() {
                    seen.insert(k.clone(), (*c, *s));
                }
            }
            seen.len() == totals.len()
                && totals.iter().all(|(k, v)| seen.get(*k) == Some(v))
                && totals.values().map(|t| t.0).sum::<i64>() == PRELOAD
        }
        _ => {
            let mut ids: Vec<i64> = Vec::with_capacity(n);
            let rows_ok = rows.rows().iter().all(|row| {
                ids.extend(row.get_int("id"));
                row_matches(seed, row)
            });
            ids.sort_unstable();
            rows_ok
                && match read {
                    Read::Point => ids == [arg],
                    Read::Range => ids == (arg..arg + RANGE_ROWS).collect::<Vec<_>>(),
                    _ => {
                        ids.len() == 10
                            && ids.windows(2).all(|w| w[0] < w[1])
                            && ids.iter().all(|&id| (arg..PRELOAD).contains(&id))
                    }
                }
        }
    };
    out.check(ok, || {
        format!(
            "{} read (arg {arg}) returned wrong rows: {rows:?}",
            read.name()
        )
    });
    n
}

/// A preloaded store and the server in front of it.
struct Served {
    server: Server,
    /// `(at, seconds)` of every reopen.
    restarts: Vec<(f64, f64)>,
    /// Registry deltas across the last reopen.
    restart_delta: Delta,
    stored_bytes_per_row: f64,
}

/// Preloads the readings in flushed batches, drops and reopens the store
/// `REOPENS` times (timing each reopen), and starts the server on it.
fn setup(seed: u64, dir: &Path, hs: &mut HostSpeed) -> Served {
    let open = |recover: bool| {
        SharedDb::open(
            OpenOptions::default()
                .vfs(Vfs::disk(dir).expect("disk vfs"))
                .recover(recover),
        )
        .expect("open engine")
    };
    let mut db = open(false);
    db.execute_cql(&format!("CREATE KEYSPACE {PHYSICAL}"))
        .expect("keyspace");
    db.execute_cql(&format!(
        "CREATE TABLE {PHYSICAL}.readings (id int, sensor text, kind text, value int, \
         PRIMARY KEY (id))"
    ))
    .expect("table");
    let mut session = db.session();
    for batch in 0..BATCHES {
        for id in batch * PRELOAD / BATCHES..(batch + 1) * PRELOAD / BATCHES {
            session
                .execute_cql(&insert_cql(PHYSICAL, seed, id))
                .expect("preload insert");
        }
        db.flush_all().expect("flush a preload batch");
        hs.sample(1);
    }
    drop(session);
    let bytes = db.table_size(PHYSICAL, "readings").expect("table size");
    let (mut restarts, mut restart_delta) = (Vec::new(), None);
    for _ in 0..REOPENS {
        drop(db);
        hs.sample(3);
        let before = Delta::start();
        let (at, t) = (hs.now(), Instant::now());
        db = open(true);
        restarts.push((at, t.elapsed().as_secs_f64()));
        restart_delta = Some(Delta::since(before));
    }
    hs.sample(3);
    let config = ServerConfig::default().tenant(TENANT, TOKEN).tracing(false);
    Served {
        server: Server::start(config, db).expect("start server"),
        restarts,
        restart_delta: restart_delta.expect("at least one reopen"),
        stored_bytes_per_row: bytes.as_bytes() as f64 / PRELOAD as f64,
    }
}

fn connect(server: &Server) -> Client {
    let mut c = Client::connect(server.addr()).expect("connect");
    c.hello(TOKEN).expect("hello");
    c
}

/// What the open-loop writer did.
struct Writes {
    /// `(due at, us from due to acked)` per insert, in run time.
    latency: Vec<(f64, f64)>,
    /// How late each insert was sent, in microseconds.
    late_us: Vec<f64>,
    acked: Vec<i64>,
    errors: u64,
}

/// The writer's open loop: one insert of a fresh id every `INSERT_EVERY`
/// until `deadline`, each timed from when it was due.
fn writer(mut client: Client, seed: u64, epoch: Instant, deadline: Instant) -> Writes {
    let start = Instant::now();
    let mut w = Writes {
        latency: Vec::new(),
        late_us: Vec::new(),
        acked: Vec::new(),
        errors: 0,
    };
    for i in 0.. {
        let due = start + INSERT_EVERY * i;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let id = PRELOAD + i as i64;
        match client.query(&insert_cql("city", seed, id)) {
            Ok(_) => w.acked.push(id),
            Err(e) => {
                w.errors += 1;
                eprintln!("perfbench: insert {id} failed: {e}");
            }
        }
        w.latency
            .push(((due - epoch).as_secs_f64(), micros(due.elapsed())));
        w.late_us.push(micros(sent - due));
    }
    w
}

/// Reads every acked insert back and compares it with its generated row.
fn check_inserts(out: &mut Outcome, reader: &mut Client, seed: u64, w: &Writes) {
    out.attempted += w.latency.len() as u64;
    out.failed += w.errors;
    let r = reader.query(&format!(
        "SELECT id, sensor, kind, value FROM city.readings WHERE id >= {PRELOAD}"
    ));
    let ok = r.as_ref().is_ok_and(|rows| {
        let mut ids: Vec<i64> = rows
            .rows()
            .iter()
            .filter_map(|r| r.get_int("id").ok())
            .collect();
        ids.sort_unstable();
        ids == w.acked && rows.rows().iter().all(|row| row_matches(seed, row))
    });
    out.check(ok, || {
        format!(
            "{} acked inserts do not read back as written",
            w.acked.len()
        )
    });
}

fn row_matches(seed: u64, row: &QueryRow) -> bool {
    let Ok(id) = row.get_int("id") else {
        return false;
    };
    let want = reading(seed, id);
    row.get_text("sensor").is_ok_and(|s| s == want.sensor)
        && row.get_text("kind").is_ok_and(|k| k == want.kind)
        && row.get_int("value").is_ok_and(|v| v == want.value)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut hs = HostSpeed::new();
    let seed = args.seed;
    let totals = kind_totals(seed);
    let (mut setups, mut restarts, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<(PathBuf, Served)> = None;
    for i in 0..SETUPS {
        if let Some((dir, old)) = kept.take() {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = args.data.join(format!("serve-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        hs.sample(3);
        let (at, t) = (hs.now(), Instant::now());
        let served = setup(seed, &dir, &mut hs);
        drop(connect(&served.server));
        setups.push((at, t.elapsed().as_secs_f64()));
        restarts.extend(&served.restarts);
        bytes.push(served.stored_bytes_per_row);
        kept = Some((dir, served));
    }
    let (dir, served) = kept.expect("at least one set-up");
    let server = &served.server;

    let mut tracer = Tracer::new(args.trace);
    let mut reader = connect(server);
    let writer_client = connect(server);
    let mut mix = Mix {
        rng: Rng::new(seed ^ 0x5E2E_0001),
    };
    // `(at, us, kind)` per read.
    let (mut reads_us, mut rounds) = (Vec::new(), 0);
    let before = Delta::start();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let epoch = hs.epoch();
    let writes = std::thread::scope(|scope| {
        let w = scope.spawn(|| writer(writer_client, seed, epoch, deadline));
        while rounds == 0 || Instant::now() < deadline {
            hs.sample(2);
            let at = hs.now();
            for read in ROUND {
                let (cql, arg) = mix.cql(read, "city");
                // The span's own cost is inside the timed interval, so the
                // traced run's latency shows the tracing overhead.
                let t = Instant::now();
                let span = tracer.begin(read.span());
                let got = reader.query(&cql);
                tracer.end(span);
                let us = micros(t.elapsed());
                check_read(
                    &mut out,
                    seed,
                    read,
                    arg,
                    got.map_err(|e| e.to_string()),
                    &totals,
                );
                reads_us.push((at, us, read));
            }
            rounds += 1;
        }
        w.join().expect("writer thread")
    });
    let delta = Delta::since(before);
    check_inserts(&mut out, &mut reader, seed, &writes);
    let layer_us = if args.trace {
        layers_in_process(
            &mut out,
            &mut tracer,
            &mut hs,
            seed,
            server,
            &mut reader,
            &totals,
        )
    } else {
        Vec::new()
    };

    // Every duration is scaled to the reference host speed at the time it
    // was measured (see `HostSpeed`); `raw` holds the figures unscaled.
    let n = reads_us.len() as f64;
    let kind_us = |scale: &Scale, kind: Read| {
        scale.sorted(
            reads_us
                .iter()
                .filter(|r| r.2 == kind)
                .map(|&(at, us, _)| (at, us)),
        )
    };
    let times = |scale: &Scale| {
        // A round at every kind's median latency: a rare stall, a few
        // percent of the point reads, must not decide whether the median
        // round holds one more scan-length wait.
        let round_us: f64 = ROUND
            .iter()
            .map(|&read| quantile(&kind_us(scale, read), 0.5))
            .sum();
        Times {
            setup_s: scale.median_span(setups.iter().copied()),
            per_s: ROUND.len() as f64 / round_us * 1e6,
            latency_us: scale.sorted(reads_us.iter().map(|&(at, us, _)| (at, us))),
            restart_s: scale.median_span(restarts.iter().copied()),
        }
    };
    let scale = hs.scale();
    let (t, raw) = (times(&scale), times(&Scale::none()));
    let insert_us = scale.sorted(writes.latency.iter().copied());
    println!(
        "serve_mix: {} rounds ({n} reads), {} inserts at one per {:?}, host-speed factor {:.3}",
        rounds,
        writes.latency.len(),
        INSERT_EVERY,
        scale.whole
    );
    println!("  serve_reads_per_s = {:.1} reads/s", t.per_s);
    for kind in Read::ALL {
        let v = kind_us(&scale, kind);
        println!("  {}_p50_us = {:.1} us", kind.name(), quantile(&v, 0.5));
        if kind == Read::Point {
            println!("  point_p99_us = {:.1} us", quantile(&v, 0.99));
        }
    }
    println!(
        "  insert_p50_us = {:.1} us (from due time)",
        quantile(&insert_us, 0.5)
    );
    if args.trace {
        tracer.summary();
        let mut late_us = writes.late_us;
        late_us.sort_by(f64::total_cmp);
        let inserts = writes.latency.len() as f64;
        out.metric("trace.p50_us", quantile(&t.latency_us, 0.50), "us");
        for (name, us) in layer_us {
            out.metric(&name, us * scale.whole, "us");
        }
        out.metric(
            "serve.writer_late_us",
            quantile(&late_us, 0.99) * scale.whole,
            "us",
        );
        out.metric(
            "nosql.commit_wait_us",
            ratio(
                delta.hist("server.statement.commit_wait_ns").1 / 1e3,
                inserts,
            ) * scale.whole,
            "us",
        );
        out.metric(
            "nosql.group_commit_records_per_batch",
            delta.hist_mean("nosql.group_commit.records_per_batch"),
            "count",
        );
        out.metric(
            "nosql.wal_bytes_per_fact",
            ratio(delta.counter("nosql.commitlog.append_bytes"), inserts),
            "B/fact",
        );
        out.metric(
            "nosql.flushes",
            delta.hist("nosql.flush.duration_ns").0,
            "count",
        );
        out.metric(
            "nosql.compactions",
            delta.hist("nosql.compaction.duration_ns").0,
            "count",
        );
        out.metric(
            "nosql.compaction_s",
            delta.hist("nosql.compaction.duration_ns").1 / 1e9 * scale.whole,
            "s",
        );
        out.metric(
            "nosql.compaction_bytes_in",
            delta.counter("nosql.compaction.bytes_in"),
            "B",
        );
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
        out.metric(
            "storage.read_bytes_per_query",
            delta.counter("storage.vfs.read_bytes") / n,
            "B",
        );
        let restart = &served.restart_delta;
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
    } else {
        out.end_to_end(&t, &raw, median(&mut bytes));
    }
    drop(reader);
    served.server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    out
}

/// Statements of each read kind replayed per layer in the traced run.
const LAYER_REPEATS: usize = 200;

/// The traced run's per-layer split of the read path, measured after the
/// writer stopped: CQL parse alone, in-process execution through
/// `SharedDb::execute_cql`, and the wire overhead of point reads (client
/// latency minus the server's own request time). Returns the timed
/// metrics, unscaled, in microseconds; records the counted ones.
fn layers_in_process(
    out: &mut Outcome,
    tracer: &mut Tracer,
    hs: &mut HostSpeed,
    seed: u64,
    server: &Server,
    reader: &mut Client,
    totals: &BTreeMap<&'static str, (i64, i64)>,
) -> Vec<(String, f64)> {
    let mut timed = Vec::new();
    let db = server.db();
    let mut mix = Mix {
        rng: Rng::new(seed ^ 0x5E2E_0002),
    };
    let mut parse_us = Vec::new();
    let (mut pruned, mut decoded) = (0.0, 0.0);
    for read in Read::ALL {
        let (mut exec_us, mut rows, mut cols_read) = (Vec::new(), 0.0, 0.0);
        for i in 0..LAYER_REPEATS {
            if i % 10 == 0 {
                hs.sample(1);
            }
            let (cql, arg) = mix.cql(read, PHYSICAL);
            let t = Instant::now();
            let parsed = tracer.time("cql.parse", || sc_nosql::parse_statement(&cql));
            parse_us.push(micros(t.elapsed()));
            out.check(parsed.is_ok(), || format!("{cql} does not parse"));
            let before = Delta::start();
            let span = tracer.begin("nosql.execute_cql");
            let t = Instant::now();
            let got = db.execute_cql(&cql);
            exec_us.push(micros(t.elapsed()));
            tracer.end(span);
            let d = Delta::since(before);
            cols_read += d.counter("nosql.read.cols_read");
            if read == Read::Aggregate {
                pruned += d.counter("nosql.read.cols_skipped");
                decoded += d.counter("nosql.read.cols_read");
            }
            let got = got.map_err(|e| e.to_string());
            rows += check_read(out, seed, read, arg, got, totals) as f64;
        }
        timed.push((
            format!("nosql.exec_us.{}", read.name()),
            median(&mut exec_us),
        ));
        if matches!(read, Read::Range | Read::Limit) {
            out.metric(
                &format!("nosql.cells_decoded_per_row.{}", read.name()),
                ratio(cols_read, rows),
                "count",
            );
        }
    }
    out.metric(
        "nosql.cols_pruned_ratio",
        ratio(pruned, pruned + decoded),
        "ratio",
    );
    timed.push(("cql.parse_us".to_string(), median(&mut parse_us)));

    let before = Delta::start();
    let mut client_us = 0.0;
    for i in 0..LAYER_REPEATS {
        if i % 10 == 0 {
            hs.sample(1);
        }
        let (cql, arg) = mix.cql(Read::Point, "city");
        let span = tracer.begin("wire.point");
        let t = Instant::now();
        let got = reader.query(&cql);
        client_us += micros(t.elapsed());
        tracer.end(span);
        check_read(
            out,
            seed,
            Read::Point,
            arg,
            got.map_err(|e| e.to_string()),
            totals,
        );
    }
    let (requests, server_ns) = Delta::since(before).hist("server.request.duration_ns");
    timed.push((
        "wire.overhead_us".to_string(),
        client_us / LAYER_REPEATS as f64 - ratio(server_ns / 1e3, requests),
    ));
    timed
}
