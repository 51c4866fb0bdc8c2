//! Benchmark of the MCBP cycle model and the serving simulator on top of
//! it: one process per workload and seed, end-to-end metrics untraced,
//! per-layer metrics in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <sweep_cold|serve_overload|fleet_prefix> \
//!     [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `RATIONALE.md` beside
//! this package says why each workload exists and what it stresses.

mod layers;
mod scenarios;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use spans::Tracer;
use stats::Metric;
use workloads::{Opts, Outcome};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 42;
/// Seed kept out of tuning, for checking a claim on unseen inputs.
const HELD_OUT_SEED: u64 = 7919;

type RunWorkload = fn(&Opts, &Tracer) -> Outcome;

const WORKLOADS: [(&str, RunWorkload); 3] = [
    ("sweep_cold", workloads::sweep_cold),
    ("serve_overload", workloads::serve_overload),
    ("fleet_prefix", workloads::fleet_prefix),
];

/// Metrics of an untraced run, in output order.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "sim_req_per_s",
    "iter_s_tail",
    "peak_rss_mib",
    "sim_goodput_tok_s",
    "sim_ttft_p95_ms",
    "sim_tpot_p95_ms",
    "sim_energy_uj_per_tok",
];

/// Metrics of a traced run, in output order.
const PER_LAYER: [&str; 23] = [
    "core.engine_new_ms",
    "sim.run_ms",
    "sim.calibration_ms",
    "bgpp.predict_us",
    "cost.misses",
    "cost.miss_ms",
    "cost.miss_share",
    "cost.hit_ns",
    "serve.us_per_req_1k",
    "serve.us_per_req_4k",
    "serve.scaling",
    "serve.steps",
    "serve.us_per_step",
    "pool.preemptions",
    "pool.prefix_hit_rate",
    "dispatch.us_per_req",
    "dispatch.parallel_speedup",
    "record.overhead_ratio",
    "trace.events",
    "trace.encode_mb_s",
    "trace.decode_mb_s",
    "trace.replay_ms",
    "spans.overhead_ms",
];

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, opts })
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("simbench: refusing to time a debug build; build with --release");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some((name, run)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "simbench: unknown workload {}; expected one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let opts = &args.opts;
    let host_cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let host = format!(
        "\"host_cores\":{host_cores},\"rustc\":\"{}\",\"profile\":\"{}\"",
        env!("SIMBENCH_RUSTC"),
        env!("SIMBENCH_PROFILE")
    );
    println!("host {{{host}}}");
    println!(
        "run workload={name} seed={} seconds={} trace={} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );

    let tracer = Tracer::new(opts.trace);
    let out = run(opts, &tracer);

    let expected: &[&str] = if opts.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = out.errors.clone();
    let mut metrics: Vec<Metric> = Vec::new();
    for want in expected {
        match out.metrics.iter().find(|m| m.name == *want) {
            Some(m) if m.value.is_finite() => metrics.push(m.clone()),
            Some(m) => errors.push(format!("metric {} is not finite: {}", m.name, m.value)),
            None => errors.push(format!("metric {want} was not measured")),
        }
    }
    for m in &metrics {
        println!(
            "metric {:<24} {:>16.6} {:<7} n={:<4} {}",
            m.name, m.value, m.unit, m.samples, m.note
        );
    }
    println!("report_digest {name} fnv1a64={:016x}", out.digest);
    if opts.trace {
        for (layer, (ms, count)) in tracer.self_times() {
            println!("self_time {layer:<16} {ms:>12.3} ms  spans={count}");
        }
        match write_spans(name, opts, &host, &tracer) {
            Ok(path) => println!("spans written to {path}"),
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
    }
    for e in &errors {
        println!("check failed: {e}");
    }

    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        errors.is_empty(),
        out.attempted,
        out.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    ExitCode::SUCCESS
}

/// Writes the traced run's spans and layer self-times as JSON under
/// `.bench_out/` in the working directory.
fn write_spans(
    workload: &str,
    opts: &Opts,
    host: &str,
    tracer: &Tracer,
) -> std::io::Result<String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{workload}-seed{}.json", opts.seed));
    let self_ms: Vec<String> = tracer
        .self_times()
        .into_iter()
        .map(|(layer, (ms, count))| format!("\"{layer}\":{{\"self_ms\":{ms},\"spans\":{count}}}"))
        .collect();
    let body = format!(
        "{{\"workload\":\"{workload}\",\"seed\":{},{host},\"layers\":{{{}}},\"spans\":{}}}\n",
        opts.seed,
        self_ms.join(","),
        tracer.to_json()
    );
    std::fs::write(&path, body)?;
    Ok(path.display().to_string())
}
