//! The repository's benchmark: one workload per process.
//!
//! ```text
//! ccix-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a metric table (name, value, unit, sample count) and, as the
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics with `--trace 0`, the per-layer ones
//! with `--trace 1`. Exits non-zero on any wrong answer.

mod class;
mod gen;
mod serve;
mod stats;
mod sys;

use serve::{ReadMix, ServeSpec, WriteMix};
use stats::Report;

/// End-to-end metrics (name, unit), as declared in BENCHMARK.json.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("write_ops_per_s", "1/s"),
    ("rss_peak_mib", "MiB"),
    ("space_ratio", "ratio"),
];

/// Per-layer metrics (name, unit), as declared in BENCHMARK.json.
const PER_LAYER: [(&str, &str); 31] = [
    ("net.stab_self_us", "us"),
    ("net.apply_self_ms", "ms"),
    ("engine.snapshot_p99_us", "us"),
    ("engine.visibility_p50_ms", "ms"),
    ("engine.visibility_p99_ms", "ms"),
    ("engine.ops_per_epoch", "count"),
    ("engine.epochs_per_s", "1/s"),
    ("engine.reorg_debt_max", "count"),
    ("interval.fork_us", "us"),
    ("interval.epoch_drop_us", "us"),
    ("interval.apply_group_ms", "ms"),
    ("interval.pump_ms", "ms"),
    ("interval.stab_us", "us"),
    ("interval.stab_batch_us", "us"),
    ("interval.left_range_us", "us"),
    ("extmem.stab_ios", "count"),
    ("extmem.apply_ios_per_op", "count"),
    ("extmem.pages", "count"),
    ("durable.append_us", "us"),
    ("durable.sync_p50_ms", "ms"),
    ("durable.sync_p99_ms", "ms"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.wal_bytes_per_op", "B"),
    ("class.query_ios", "count"),
    ("class.write_ios_per_op", "count"),
    ("class.pages", "count"),
    ("trace.stab_overhead_us", "us"),
    ("recon.stab_remainder_us", "us"),
    ("recon.apply_remainder_ms", "ms"),
    ("tcp.stab_p50_us", "us"),
    ("tcp.apply_p50_ms", "ms"),
];

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn serve_spec(name: &str) -> Option<ServeSpec> {
    match name {
        // Reads dominate; the writer's commits are small, durable and paced.
        "serve-read-200k" => Some(ServeSpec {
            name: "serve-read-200k",
            n: 200_000,
            durable: true,
            read: ReadMix::Closed,
            write: WriteMix::Open {
                per_s: 50.0,
                ops: 16,
            },
        }),
        // Writes dominate, at a size where the cost that grows with n shows.
        "serve-write-2m" => Some(ServeSpec {
            name: "serve-write-2m",
            n: 2_000_000,
            durable: false,
            read: ReadMix::OpenStab { per_s: 2_000.0 },
            write: WriteMix::Closed { ops: 64 },
        }),
        _ => None,
    }
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunArgs {
            seed: seed.unwrap_or(1),
            seconds,
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ccix-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    rep.meta("workload", &workload);
    rep.meta("seed", args.seed);
    rep.meta("seconds", args.seconds);
    rep.meta("trace", u8::from(args.trace));
    rep.meta("nproc", sys::nproc());
    rep.meta("rev", sys::git_rev());
    let ran = match (workload.as_str(), serve_spec(&workload)) {
        (_, Some(spec)) => serve::run(&spec, &args, &mut rep),
        ("class-rake-100k", None) => class::run(&args, &mut rep),
        _ => {
            eprintln!("ccix-perfbench: unknown workload {workload}");
            std::process::exit(2);
        }
    };
    if let Err(e) = ran {
        eprintln!("ccix-perfbench: {workload} failed: {e}");
        std::process::exit(1);
    }
    rep.print_table();
    let line = if args.trace {
        rep.result_json(&PER_LAYER, false)
    } else {
        rep.result_json(&END_TO_END, true)
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ccix-perfbench: {e}");
            std::process::exit(1);
        }
    }
    if rep.wrong > 0 {
        eprintln!("ccix-perfbench: {} wrong answers", rep.wrong);
        std::process::exit(1);
    }
}
