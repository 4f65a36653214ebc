//! `ldp-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_deploy|ingest_wire|query_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets its workload up several times (reporting the median
//! set-up time), measures whole rounds of the workload's fixed
//! operation sequence for `--seconds`, checks the program's outputs
//! against properties the method must have, and prints one JSON object
//! as its last line of standard output. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics and the
//! tracing overhead. See `perfbench/README.md`.

// A benchmark reads the wall clock by design.
#![allow(clippy::disallowed_methods)]

use std::path::PathBuf;
use std::process::ExitCode;

mod ingest_wire;
mod inputs;
mod layers;
mod paper_deploy;
mod query_mix;
mod report;
mod stats;
mod trace;

/// Compute-pool threads every run is pinned to. One client connection
/// plus one server worker already use both cores of a 2-vCPU host; a
/// fixed count also keeps the optimizer's reductions identical run to
/// run.
const LDP_THREADS: &str = "1";

/// Parsed command line.
pub(crate) struct Ctx {
    pub(crate) workload: String,
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Scratch directory for registries and snapshots, inside the
    /// current directory; removed when the run ends.
    pub(crate) dir: PathBuf,
}

const WORKLOADS: [&str; 3] = ["paper_deploy", "ingest_wire", "query_mix"];

fn parse_args() -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // No default: the run length comes from `run_seconds` in
    // BENCHMARK.json, passed by whoever runs the benchmark.
    let seconds = seconds.ok_or("--seconds is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    let dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        dir,
    })
}

fn main() -> ExitCode {
    // Pin the compute pool before anything reads it (the pool resolves
    // LDP_THREADS once per process).
    std::env::set_var("LDP_THREADS", LDP_THREADS);
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("ldp-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "stamp: workload={} seed={} seconds={} trace={} backend={} LDP_THREADS={} pool_threads={} nproc={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ldp_linalg::kernels::backend().as_str(),
        LDP_THREADS,
        ldp_parallel::pool().threads(),
        nproc,
    );
    if let Err(e) = std::fs::create_dir_all(&ctx.dir) {
        eprintln!("ldp-perfbench: cannot create {}: {e}", ctx.dir.display());
        return ExitCode::from(1);
    }
    let mut outcome = match ctx.workload.as_str() {
        "paper_deploy" => paper_deploy::run(&ctx),
        "ingest_wire" => ingest_wire::run(&ctx),
        _ => query_mix::run(&ctx),
    };
    if ctx.trace {
        layers::probe_all(&ctx, &mut outcome);
    } else {
        outcome.metric("peak_rss_mb", "MiB", report::peak_rss_mib());
    }
    let _ = std::fs::remove_dir_all(&ctx.dir);
    // Leave `.bench_run` itself behind only if another run still uses it.
    let _ = std::fs::remove_dir(".bench_run");
    println!(
        "ops: workload={} attempted={} failed={}",
        ctx.workload, outcome.attempted, outcome.failed
    );
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
