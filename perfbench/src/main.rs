//! `perfbench` — the repeatable benchmark of the cube warehouse.
//!
//! ```text
//! perfbench --workload <cube_load|cube_query|serve_mix> --seed <n>
//!           --seconds <s> --trace <0|1> [--data <dir>]
//! ```
//!
//! Each run generates its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures one workload for
//! `--seconds`, checks every answer against the benchmark's own
//! computation from the generated inputs, and prints one JSON object as
//! its last line. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics (see README.md). `--data` is the scratch
//! directory for disk-backed stores; it is removed at exit.

mod cube_load;
mod cube_query;
mod feed;
mod report;
mod serve_mix;

use std::path::PathBuf;

/// End-to-end metrics every workload reports with `--trace 0`; the same
/// names as `end_to_end` in `BENCHMARK.json`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_per_s",
    "p50_us",
    "p90_us",
    "restart_s",
    "stored_bytes_per_fact",
];

/// Per-layer metrics every workload reports with `--trace 1` (the
/// `per_layer` list of `BENCHMARK.json`); a layer a workload does not cross
/// reads 0.
const PER_LAYER: [(&str, &str); 37] = [
    ("ingest.extract_s", "s"),
    ("dwarf.build_s", "s"),
    ("dwarf.cells", "count"),
    ("core.map_s", "s"),
    ("core.store_s", "s"),
    ("core.rebuild_s", "s"),
    ("core.node_cache_hit_ratio", "ratio"),
    ("core.selects_per_query", "count"),
    ("core.rows_per_query", "count"),
    ("core.fetch_share", "ratio"),
    ("nosql.wal_bytes_per_fact", "B/fact"),
    ("nosql.flushes", "count"),
    ("nosql.compactions", "count"),
    ("nosql.compaction_s", "s"),
    ("nosql.compaction_bytes_in", "B"),
    ("nosql.commit_wait_us", "us"),
    ("nosql.group_commit_records_per_batch", "count"),
    ("nosql.replayed_records", "count"),
    ("nosql.get_us", "us"),
    ("nosql.get_in_us", "us"),
    ("nosql.blocks_per_get", "count"),
    ("nosql.sstables_per_get", "count"),
    ("nosql.block_cache_hit_ratio", "ratio"),
    ("nosql.exec_us.point", "us"),
    ("nosql.exec_us.range", "us"),
    ("nosql.exec_us.limit", "us"),
    ("nosql.exec_us.aggregate", "us"),
    ("nosql.cells_decoded_per_row.range", "count"),
    ("nosql.cells_decoded_per_row.limit", "count"),
    ("nosql.cols_pruned_ratio", "ratio"),
    ("cql.parse_us", "us"),
    ("wire.overhead_us", "us"),
    ("serve.writer_late_us", "us"),
    ("storage.write_amp", "ratio"),
    ("storage.restart_read_bytes", "B"),
    ("storage.read_bytes_per_query", "B"),
    ("trace.p50_us", "us"),
];

#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub data: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <cube_load|cube_query|serve_mix> --seed <n> \
         --seconds <s> --trace <0|1> [--data <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        data: PathBuf::from(".bench_build/perfbench-data"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--data" => args.data = PathBuf::from(value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let run: fn(&Args) -> report::Outcome = match args.workload.as_str() {
        "cube_load" => cube_load::run,
        "cube_query" => cube_query::run,
        "serve_mix" => serve_mix::run,
        other => usage(&format!("unknown workload {other:?}")),
    };
    // Scratch space for this process only; removed before exit.
    let data = args.data.join(format!("run-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data);
    std::fs::create_dir_all(&data).expect("create the data directory");
    let args = Args { data, ..args };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench {} seed={} seconds={} trace={} cores={cores}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut out = run(&args);
    let _ = std::fs::remove_dir_all(&args.data);
    if args.trace {
        for (name, unit) in PER_LAYER {
            out.default_metric(name, unit);
        }
    }
    let names: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.to_vec()
    };
    out.retain_exactly(&names);
    out.print();
    if out.failed > 0 {
        std::process::exit(1);
    }
}
