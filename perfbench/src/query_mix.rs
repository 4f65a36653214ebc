//! `query_mix`: one closed-loop connection issues a fixed, seeded mix of
//! reads against a server pre-loaded during set-up with a 512-cell
//! schema deployment (Hadamard response) and an open-domain Hadamard
//! deployment. The read path does the work: `Deployment::estimate`, the
//! per-query variance profile behind `Estimate::answer`, the FWHT
//! heavy-hitter sweep and the merge barrier.
//!
//! One round is 4 cycles; a cycle is 11 reads in seeded order (6
//! ad-hoc scalar `Query`s, 2 full workload `Answers`, 2 sparse `point`s,
//! 1 `heavy_hitters`) followed by one small `Submit` (64 reports,
//! alternating dense and sparse), so the next read pays for the merge
//! barrier and a fresh estimate.

use std::time::Instant;

use ldp::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::inputs::{
    adhoc_query, bucket_count, dashboard_deployment, decoys, dense_reports, start, Keys, Running,
    EPSILON,
};
use crate::report::Outcome;
use crate::stats::{describe, median, ms_since, repeated_setup};
use crate::trace::Tracer;
use crate::Ctx;

const DENSE_NAME: &str = "dashboard";
const SPARSE_NAME: &str = "urls";
/// Hadamard bucket exponent of the open-domain deployment.
pub(crate) const SPARSE_BITS: u32 = 14;
/// Dense reports loaded during set-up.
const PRELOAD_DENSE: usize = 1 << 20;
/// Open-domain reports loaded during set-up.
const PRELOAD_SPARSE: usize = 1 << 21;
/// Reports per pre-load batch.
const PRELOAD_BATCH: usize = 8192;
/// Cycles per round.
const CYCLES: usize = 4;
/// Reports per small submit.
const SMALL_BATCH: usize = 64;
/// Distinct seeded ad-hoc queries the mix draws from.
const ADHOC_POOL: usize = 64;
/// Heavy-hitter request: top `TOP_K` of `CANDIDATES` planted keys plus
/// as many decoys, admitted at `HH_Z` standard deviations.
const TOP_K: usize = 10;
const CANDIDATES: usize = 20;
const HH_Z: f64 = 5.0;
/// Share of the `TOP_K` heaviest planted keys `heavy_hitters` must
/// return.
const RECALL: f64 = 0.8;
/// Users-needed target of `sample_complexity`.
const ALPHA: f64 = 0.01;
/// Set-ups per run (each ~1.1 s); `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

#[derive(Clone, Copy)]
enum Op {
    Adhoc(usize),
    Answers,
    Point(usize),
    TopK,
    SubmitDense(usize),
    SubmitSparse(usize),
}

struct Setup {
    dense: Deployment,
    sparse: SparseDeployment,
    keys: Keys,
    /// Times each key rank was drawn across everything loaded so far
    /// (pre-load; small sparse batches are added per round sent).
    key_drawn: Vec<u64>,
    /// Key draws of one pass over the small sparse batches.
    small_drawn: Vec<u64>,
    ops: Vec<Op>,
    adhoc: Vec<Query>,
    /// Key hashes the point reads ask for.
    points: Vec<u64>,
    candidates: Vec<u64>,
    decoys: Vec<u64>,
    small_dense: Vec<Vec<u64>>,
    small_sparse: Vec<Vec<u64>>,
    server: Option<Running>,
}

fn setup(ctx: &Ctx) -> Setup {
    let dense = dashboard_deployment();
    let sparse =
        SparseDeployment::hadamard("url", EPSILON, SPARSE_BITS).expect("sparse deployment");
    let keys = Keys::new();
    let mut rng = StdRng::seed_from_u64(ctx.seed);

    let (preload_dense, _) = dense_reports(&dense, PRELOAD_DENSE, &mut rng);
    let (preload_sparse, key_drawn) = keys.reports(&sparse, PRELOAD_SPARSE, &mut rng);
    let (small_dense_reports, _) = dense_reports(&dense, CYCLES / 2 * SMALL_BATCH, &mut rng);
    let (small_sparse_reports, small_drawn) =
        keys.reports(&sparse, CYCLES / 2 * SMALL_BATCH, &mut rng);

    let adhoc = (0..ADHOC_POOL).map(|_| adhoc_query(&mut rng)).collect();
    // Point reads: heavy keys and tail keys alike.
    let points = (0..16)
        .map(|i| {
            let rank = if i % 2 == 0 {
                rng.gen_range(0..50)
            } else {
                rng.gen_range(50..crate::inputs::KEYS)
            };
            keys.hashes[rank]
        })
        .collect();
    let decoys = decoys(&sparse, &keys, CANDIDATES);
    let mut candidates: Vec<u64> = keys.hashes[..CANDIDATES].to_vec();
    candidates.extend(&decoys);

    let mut ops = Vec::with_capacity(CYCLES * 12);
    for cycle in 0..CYCLES {
        let mut reads: Vec<Op> = Vec::with_capacity(11);
        for _ in 0..6 {
            reads.push(Op::Adhoc(rng.gen_range(0..ADHOC_POOL)));
        }
        reads.extend([Op::Answers, Op::Answers, Op::TopK]);
        for _ in 0..2 {
            reads.push(Op::Point(rng.gen_range(0..16)));
        }
        for i in (1..reads.len()).rev() {
            reads.swap(i, rng.gen_range(0..i + 1));
        }
        ops.extend(reads);
        ops.push(if cycle % 2 == 0 {
            Op::SubmitDense(cycle / 2)
        } else {
            Op::SubmitSparse(cycle / 2)
        });
    }

    let (mut server, _) = start(None, &[(DENSE_NAME, &dense)], &[(SPARSE_NAME, &sparse)]);
    for batch in preload_dense.chunks(PRELOAD_BATCH) {
        server
            .client
            .submit(DENSE_NAME, batch)
            .expect("pre-load dense");
    }
    for batch in preload_sparse.chunks(PRELOAD_BATCH) {
        server
            .client
            .submit_sparse(SPARSE_NAME, batch)
            .expect("pre-load sparse");
    }
    // Merge the pre-load so the first timed read pays no bulk barrier.
    server.client.info().expect("info");

    Setup {
        dense,
        sparse,
        keys,
        key_drawn,
        small_drawn,
        ops,
        adhoc,
        points,
        candidates,
        decoys,
        small_dense: small_dense_reports
            .chunks(SMALL_BATCH)
            .map(<[u64]>::to_vec)
            .collect(),
        small_sparse: small_sparse_reports
            .chunks(SMALL_BATCH)
            .map(<[u64]>::to_vec)
            .collect(),
        server: Some(server),
    }
}

fn teardown(s: Setup) {
    if let Some(server) = s.server {
        server.stop();
    }
}

#[derive(Default)]
struct Latencies {
    adhoc: Vec<f64>,
    answers: Vec<f64>,
    point: Vec<f64>,
    topk: Vec<f64>,
    submit: Vec<f64>,
}

pub(crate) fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (mut s, setup_times) = repeated_setup(SETUP_REPEATS, |_| setup(ctx), teardown);

    let mut tracer = Tracer::new(ctx.trace);
    let mut lat = Latencies::default();
    let mut round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    // 11 reads and the submit that ends them: `op_p50_ms` is the median.
    let mut cycle_ms = Vec::new();
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        let traced = ctx.trace && rounds % 2 == 1;
        tracer.set_enabled(traced);
        let client = &mut s.server.as_mut().expect("server running").client;
        let span = tracer.begin("round", None);
        let t_round = Instant::now();
        let mut t_cycle = Instant::now();
        for &op in &s.ops {
            let t = Instant::now();
            let ok = match op {
                Op::Adhoc(i) => {
                    let r = tracer.time("read.adhoc", span, || {
                        client.answer(DENSE_NAME, &s.adhoc[i])
                    });
                    lat.adhoc.push(ms_since(t));
                    r.is_ok_and(|a| a.value.is_finite())
                }
                Op::Answers => {
                    let r = tracer.time("read.answers", span, || client.answers(DENSE_NAME));
                    lat.answers.push(ms_since(t));
                    r.is_ok()
                }
                Op::Point(i) => {
                    let r = tracer.time("read.point", span, || {
                        client.point_hashed(SPARSE_NAME, s.points[i])
                    });
                    lat.point.push(ms_since(t));
                    r.is_ok()
                }
                Op::TopK => {
                    let r = tracer.time("read.topk", span, || {
                        client.heavy_hitters(SPARSE_NAME, &s.candidates, TOP_K, HH_Z)
                    });
                    lat.topk.push(ms_since(t));
                    r.is_ok()
                }
                Op::SubmitDense(i) => {
                    let r = tracer.time("submit", span, || {
                        client.submit(DENSE_NAME, &s.small_dense[i])
                    });
                    lat.submit.push(ms_since(t));
                    r.is_ok()
                }
                Op::SubmitSparse(i) => {
                    let r = tracer.time("submit", span, || {
                        client.submit_sparse(SPARSE_NAME, &s.small_sparse[i])
                    });
                    lat.submit.push(ms_since(t));
                    r.is_ok()
                }
            };
            out.attempted += 1;
            if !ok {
                out.failed += 1;
            }
            if matches!(op, Op::SubmitDense(_) | Op::SubmitSparse(_)) {
                cycle_ms.push(ms_since(t_cycle));
                t_cycle = Instant::now();
            }
        }
        let elapsed = t_round.elapsed().as_secs_f64();
        tracer.end(span);
        if traced {
            traced_round_s.push(elapsed);
        } else {
            round_s.push(elapsed);
        }
        rounds += 1;
    }

    check_final_state(&mut out, &mut s, rounds);
    let sample_complexity = s.dense.sample_complexity(ALPHA);
    teardown(s);

    println!("{}", describe("round", "s", &round_s));
    for (name, samples) in [
        ("cycle", &cycle_ms),
        ("adhoc", &lat.adhoc),
        ("answers", &lat.answers),
        ("point", &lat.point),
        ("topk", &lat.topk),
        ("submit", &lat.submit),
    ] {
        println!("{}", describe(name, "ms", samples));
    }
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
        out.metric("op_p50_ms", "ms", median(&cycle_ms));
        out.metric("sample_complexity", "users", sample_complexity);
    }
    out
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn check_final_state(out: &mut Outcome, s: &mut Setup, rounds: u64) {
    let client = &mut s.server.as_mut().expect("server running").client;
    let small = (CYCLES / 2 * SMALL_BATCH) as u64;
    for info in client.info().expect("info") {
        let preload = if info.name == DENSE_NAME {
            PRELOAD_DENSE
        } else {
            PRELOAD_SPARSE
        };
        let sent = preload as u64 + rounds * small;
        out.check(info.reports == sent, || {
            format!(
                "{}: server counts {} reports, {sent} sent",
                info.name, info.reports
            )
        });
    }

    // Linearity: a..c = a..b + b..c, alone and under a second condition.
    for (a, b, c) in [(0, 3, 8), (1, 4, 6), (2, 5, 7)] {
        for region in [None, Some(2)] {
            let q = |lo: usize, hi: usize| {
                let q = Query::range("age", lo..hi);
                match region {
                    Some(r) => q.and_equals("region", r),
                    None => q,
                }
            };
            let mut ask = |query: Query| client.answer(DENSE_NAME, &query).expect("answer").value;
            let (ac, ab, bc) = (ask(q(a, c)), ask(q(a, b)), ask(q(b, c)));
            out.check(close(ac, ab + bc), || {
                format!("age {a}..{c} = {ac} but {a}..{b} + {b}..{c} = {}", ab + bc)
            });
        }
    }

    // An ad-hoc answer to a declared row equals that row of `answers`.
    let answers = client.answers(DENSE_NAME).expect("answers").answers;
    let declared = crate::inputs::dashboard_queries();
    for (row, query) in declared.iter().take(2).enumerate() {
        let adhoc = client.answer(DENSE_NAME, query).expect("answer").value;
        out.check(close(adhoc, answers[row]), || {
            format!(
                "declared row {row}: ad-hoc {adhoc} vs answers {}",
                answers[row]
            )
        });
    }

    // Heavy hitters: the heaviest planted keys at the stated recall,
    // and no decoy.
    let drawn: Vec<u64> = s
        .key_drawn
        .iter()
        .zip(&s.small_drawn)
        .map(|(&pre, &small)| pre + small * rounds)
        .collect();
    let mut planted: Vec<(u64, u64)> = s.candidates[..CANDIDATES]
        .iter()
        .map(|&key| (bucket_count(&s.sparse, &s.keys, &drawn, key), key))
        .collect();
    planted.sort_unstable_by(|a, b| b.cmp(a));
    let hh = client
        .heavy_hitters(SPARSE_NAME, &s.candidates, TOP_K, HH_Z)
        .expect("heavy hitters");
    let returned: Vec<u64> = hh.hitters.iter().map(|h| h.key_hash).collect();
    let found = planted[..TOP_K]
        .iter()
        .filter(|(_, key)| returned.contains(key))
        .count();
    out.check(found as f64 >= RECALL * TOP_K as f64, || {
        format!("heavy hitters found {found} of the {TOP_K} heaviest planted keys")
    });
    out.check(!returned.iter().any(|k| s.decoys.contains(k)), || {
        "heavy hitters admitted a decoy".into()
    });
}
