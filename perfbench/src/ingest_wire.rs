//! `ingest_wire`: one closed-loop connection streams pre-randomised
//! report batches into an in-process `ldp_serve::Server` (one worker)
//! and checkpoints both deployments to a snapshot directory at a fixed
//! report interval. Wire codec, validation, shard absorb and snapshot
//! writes do the work; the optimizer does none.
//!
//! One round sends the whole pre-randomised pool once: 32 steps, each
//! one dense `Submit` of 32768 reports for the survey deployment
//! (randomized response over 256 cells) and one `SubmitSparse` of 32768
//! Zipf-keyed reports for a Hadamard open-domain deployment, with a
//! checkpoint of both after the last step. After the last round the run
//! reads the answers once, checks them against its own tally, restarts
//! the server from its snapshots and checks the answers again.

use std::path::PathBuf;
use std::time::Instant;

use ldp::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::{
    bucket_count, dense_reports, start, survey_deployment, Keys, Running, EPSILON,
};
use crate::report::Outcome;
use crate::stats::{describe, median, ms_since, repeated_setup, timed_setup};
use crate::trace::Tracer;
use crate::Ctx;

const DENSE_NAME: &str = "survey";
const SPARSE_NAME: &str = "urls";
/// Dense reports per `Submit`: the `serve_load` harness's default batch.
pub(crate) const DENSE_BATCH: usize = 1 << 15;
/// Open-domain reports per `SubmitSparse`, equal to the dense batch
/// (`serve_load` and `sparse_load` both default to the same report
/// volume).
const SPARSE_BATCH: usize = 1 << 15;
/// Steps per round; each step sends one dense and one sparse batch.
const STEPS: usize = 32;
/// Steps between checkpoints (every 1 048 576 dense reports, once per
/// round). The 2^16-bucket sparse snapshot is ~1.8 MB, and writing it
/// more often made file-system noise a large share of the round.
const CHECKPOINT_EVERY: usize = 32;
/// Hadamard bucket exponent of the open-domain deployment (the
/// `ldp-served` default).
pub(crate) const SPARSE_BITS: u32 = 16;
/// Planted keys whose point estimates are checked.
const PLANTED: usize = 10;
/// Standard deviations allowed between a point estimate and its truth.
const Z: f64 = 5.0;
/// Users-needed target of `sample_complexity`.
const ALPHA: f64 = 0.01;
/// Set-ups before the first round (each ~0.2 s).
const SETUP_REPEATS: usize = 3;
/// Rounds between further set-ups, timed and torn down, so that
/// `setup_s` (the median of all) samples the whole run rather than its
/// first second.
const SETUP_EVERY: u64 = 16;

struct Setup {
    dense: Deployment,
    sparse: SparseDeployment,
    keys: Keys,
    dense_batches: Vec<Vec<u64>>,
    dense_tally: Vec<u64>,
    sparse_batches: Vec<Vec<u64>>,
    key_drawn: Vec<u64>,
    snapshots: PathBuf,
    server: Option<Running>,
}

fn setup(ctx: &Ctx, repeat: usize) -> Setup {
    let dense = survey_deployment();
    let sparse =
        SparseDeployment::hadamard("url", EPSILON, SPARSE_BITS).expect("sparse deployment");
    let keys = Keys::new();
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let (dense_reports, dense_tally) = dense_reports(&dense, STEPS * DENSE_BATCH, &mut rng);
    let (sparse_reports, key_drawn) = keys.reports(&sparse, STEPS * SPARSE_BATCH, &mut rng);
    let snapshots = ctx.dir.join(format!("snapshots-{repeat}"));
    let (server, _) = start(
        Some(snapshots.clone()),
        &[(DENSE_NAME, &dense)],
        &[(SPARSE_NAME, &sparse)],
    );
    Setup {
        dense_batches: dense_reports
            .chunks(DENSE_BATCH)
            .map(<[u64]>::to_vec)
            .collect(),
        sparse_batches: sparse_reports
            .chunks(SPARSE_BATCH)
            .map(<[u64]>::to_vec)
            .collect(),
        dense,
        sparse,
        keys,
        dense_tally,
        key_drawn,
        snapshots,
        server: Some(server),
    }
}

fn teardown(s: Setup) {
    if let Some(server) = s.server {
        server.stop();
    }
    let _ = std::fs::remove_dir_all(&s.snapshots);
}

pub(crate) fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (mut s, mut setup_times) = repeated_setup(SETUP_REPEATS, |i| setup(ctx, i), teardown);

    let mut tracer = Tracer::new(ctx.trace);
    let mut round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    let mut dense_ms = Vec::new();
    let mut sparse_ms = Vec::new();
    // One dense plus one sparse submit, and every checkpoint of a round
    // together: the two parts of `op_p50_ms`.
    let mut step_ms = Vec::new();
    let mut round_checkpoint_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && rounds % 2 == 1;
        tracer.set_enabled(traced);
        let client = &mut s.server.as_mut().expect("server running").client;
        let span = tracer.begin("round", None);
        let t_round = Instant::now();
        let mut checkpoints = 0.0;
        for step in 0..STEPS {
            let batch = &s.dense_batches[step];
            let t_step = Instant::now();
            let t = Instant::now();
            let ack = tracer.time("submit.dense", span, || client.submit(DENSE_NAME, batch));
            dense_ms.push(ms_since(t));
            out.attempted += 1;
            match ack {
                Ok(ack) if ack.accepted == batch.len() as u64 => {}
                _ => out.failed += 1,
            }

            let batch = &s.sparse_batches[step];
            let t = Instant::now();
            let ack = tracer.time("submit.sparse", span, || {
                client.submit_sparse(SPARSE_NAME, batch)
            });
            sparse_ms.push(ms_since(t));
            step_ms.push(ms_since(t_step));
            out.attempted += 1;
            match ack {
                Ok(ack) if ack.accepted == batch.len() as u64 => {}
                _ => out.failed += 1,
            }

            if (step + 1) % CHECKPOINT_EVERY == 0 {
                for name in [DENSE_NAME, SPARSE_NAME] {
                    let t = Instant::now();
                    let ack = tracer.time("checkpoint", span, || client.checkpoint(name));
                    let ms = ms_since(t);
                    checkpoint_ms.push(ms);
                    checkpoints += ms;
                    out.attempted += 1;
                    if ack.is_err() {
                        out.failed += 1;
                    }
                }
            }
        }
        let elapsed = t_round.elapsed().as_secs_f64();
        round_checkpoint_ms.push(checkpoints);
        tracer.end(span);
        if traced {
            traced_round_s.push(elapsed);
        } else {
            round_s.push(elapsed);
        }
        rounds += 1;
        if rounds.is_multiple_of(SETUP_EVERY) {
            let repeat = SETUP_REPEATS + setup_times.len();
            teardown(timed_setup(&mut setup_times, || setup(ctx, repeat)));
        }
    }

    check_final_state(&mut out, &mut s, rounds);
    let sample_complexity = s.dense.sample_complexity(ALPHA);
    teardown(s);

    let round_reports = (STEPS * (DENSE_BATCH + SPARSE_BATCH)) as f64;
    println!("{}", describe("round", "s", &round_s));
    println!("reports_per_s: p50={:.0}", round_reports / median(&round_s));
    println!("{}", describe("step", "ms", &step_ms));
    println!("{}", describe("submit dense", "ms", &dense_ms));
    println!("{}", describe("submit sparse", "ms", &sparse_ms));
    println!("{}", describe("checkpoint", "ms", &checkpoint_ms));
    if ctx.trace {
        for line in tracer.summary() {
            println!("{line}");
        }
        out.metric(
            "trace.overhead_ratio",
            "ratio",
            median(&traced_round_s) / median(&round_s),
        );
    } else {
        out.metric("setup_s", "s", median(&setup_times));
        // Time per step: the median step plus the step's share of the
        // median round's checkpoints, so the dense, sparse and store
        // paths all count.
        let op = median(&step_ms) + median(&round_checkpoint_ms) / STEPS as f64;
        out.metric("op_p50_ms", "ms", op);
        out.metric("sample_complexity", "users", sample_complexity);
    }
    out
}

/// The benchmark's own evaluation of `W·(R·y)`: `y` is the tally of
/// every dense report sent, `R` the deployment's reconstruction matrix
/// and `W` its workload matrix.
fn expected_answers(dep: &Deployment, tally: &[u64], rounds: u64) -> Vec<f64> {
    let r = dep.mechanism().reconstruction_matrix();
    let w = dep.workload().matrix();
    let xhat: Vec<f64> = (0..r.rows())
        .map(|i| {
            r.row(i)
                .iter()
                .zip(tally)
                .map(|(k, &y)| k * (y * rounds) as f64)
                .sum()
        })
        .collect();
    (0..w.rows())
        .map(|j| w.row(j).iter().zip(&xhat).map(|(a, b)| a * b).sum())
        .collect()
}

fn check_final_state(out: &mut Outcome, s: &mut Setup, rounds: u64) {
    let client = &mut s.server.as_mut().expect("server running").client;
    let dense_sent = rounds * (STEPS * DENSE_BATCH) as u64;
    let sparse_sent = rounds * (STEPS * SPARSE_BATCH) as u64;
    let info = client.info().expect("info");
    for d in &info {
        let sent = if d.name == DENSE_NAME {
            dense_sent
        } else {
            sparse_sent
        };
        out.check(d.reports == sent, || {
            format!(
                "{}: server counts {} reports, {sent} sent",
                d.name, d.reports
            )
        });
    }

    let served = client.answers(DENSE_NAME).expect("answers");
    let expected = expected_answers(&s.dense, &s.dense_tally, rounds);
    let scale = expected.iter().fold(1.0f64, |m, v| m.max(v.abs()));
    let worst = served
        .answers
        .iter()
        .zip(&expected)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    out.check(
        served.answers.len() == expected.len() && worst <= 1e-9 * scale,
        || format!("answers differ from W(Ry) by {worst} (scale {scale})"),
    );

    // Every round resends the same pool, so the estimate's error is
    // `rounds` times the pool's: its standard deviation is the served
    // one (for `rounds` independent pools) times sqrt(rounds).
    let mut points = Vec::with_capacity(PLANTED);
    for rank in 0..PLANTED {
        let key = s.keys.hashes[rank];
        let answer = client.point_hashed(SPARSE_NAME, key).expect("point");
        let truth = (bucket_count(&s.sparse, &s.keys, &s.key_drawn, key) * rounds) as f64;
        let stddev = answer.stddev * (rounds as f64).sqrt();
        out.check((answer.value - truth).abs() <= Z * stddev, || {
            format!(
                "key rank {rank}: estimate {} vs true {truth} (stddev {})",
                answer.value, stddev
            )
        });
        points.push(answer.value.to_bits());
    }

    // Restart from the snapshots the shutdown persisted.
    let before: Vec<u64> = served.answers.iter().map(|a| a.to_bits()).collect();
    s.server.take().expect("server running").stop();
    let (mut restarted, resumed) = start(
        Some(s.snapshots.clone()),
        &[(DENSE_NAME, &s.dense)],
        &[(SPARSE_NAME, &s.sparse)],
    );
    out.check(resumed.iter().all(|&r| r), || {
        format!("restart resumed {resumed:?} of the two deployments")
    });
    let after = restarted
        .client
        .answers(DENSE_NAME)
        .expect("answers after restart");
    let after_bits: Vec<u64> = after.answers.iter().map(|a| a.to_bits()).collect();
    out.check(after_bits == before && after.reports == dense_sent, || {
        "answers after restart differ from answers before it".into()
    });
    for (rank, bits) in points.iter().enumerate() {
        let again = restarted
            .client
            .point_hashed(SPARSE_NAME, s.keys.hashes[rank])
            .expect("point after restart");
        out.check(again.value.to_bits() == *bits, || {
            format!("key rank {rank}: point estimate changed across the restart")
        });
    }
    s.server = Some(restarted);
}
