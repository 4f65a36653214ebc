//! `paper_deploy`: cold deploys of the paper's workloads into a fresh
//! strategy registry at ε = 1 with the paper-faithful optimizer
//! configuration. The optimizer does nearly all the work; no socket is
//! touched.
//!
//! One round: cold-deploy Prefix(64), All Range(64) and the three
//! 2-way marginals of a 4×4×4 schema (timed), check each strategy is
//! ε-LDP and beats every closed-form baseline, redeploy each warm from
//! the registry (a bit-identical hit), and run the known-faulty L-BFGS
//! operation, whose time is kept out of every metric.

use std::sync::Arc;
use std::time::Instant;

use ldp::prelude::*;
use ldp_workloads::SchemaWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::EPSILON;
use crate::report::Outcome;
use crate::stats::{describe, median, repeated_setup, timed_setup};
use crate::trace::Tracer;
use crate::Ctx;

/// Users-needed target of `sample_complexity` (Corollary 5.4).
const ALPHA: f64 = 0.01;
/// Seed of the L-BFGS operation; fixed so the failing input never
/// depends on `--seed`.
const LBFGS_SEED: u64 = 7;
/// Domain of the L-BFGS operation (All Range over 64 types).
const LBFGS_N: usize = 64;
/// Monte-Carlo trials of the unbiasedness check.
const TRIALS: usize = 200;
/// Standard errors allowed between a simulated mean and its target.
const Z: f64 = 5.0;
/// Set-ups before the first round (each ~15 ms).
const SETUP_REPEATS: usize = 3;
/// Further set-ups after every round, timed and dropped, so that
/// `setup_s` (the median of all) samples the whole run rather than its
/// first fraction of a second.
const SETUPS_PER_ROUND: usize = 3;

struct PaperWorkload {
    name: &'static str,
    workload: Arc<dyn Workload + Send + Sync>,
    /// The closed-form baseline with the lowest sample complexity.
    best_baseline: (Baseline, f64),
}

struct Setup {
    workloads: Vec<PaperWorkload>,
    /// DPBench-shaped (HEPTH-like) data over the Prefix domain.
    data: DataVector,
    lbfgs_gram: Gram,
}

fn setup(seed: u64) -> Setup {
    let marginals = SchemaWorkload::new(
        Arc::new(Schema::new([("a", 4), ("b", 4), ("c", 4)])),
        &[
            Query::marginal(["a", "b"]),
            Query::marginal(["b", "c"]),
            Query::marginal(["a", "c"]),
        ],
    )
    .expect("valid marginals workload");
    let named: [(&'static str, Arc<dyn Workload + Send + Sync>); 3] = [
        ("prefix64", Arc::new(Prefix::new(64))),
        ("allrange64", Arc::new(AllRange::new(64))),
        ("marginals4x4x4", Arc::new(marginals)),
    ];
    let workloads = named
        .into_iter()
        .map(|(name, workload)| {
            let best_baseline = [
                Baseline::RandomizedResponse,
                Baseline::HadamardResponse,
                Baseline::Hierarchical,
            ]
            .into_iter()
            .filter_map(|b| {
                let dep = Pipeline::for_shared_workload(Arc::clone(&workload))
                    .epsilon(EPSILON)
                    .baseline(b)
                    .ok()?;
                Some((b, dep.sample_complexity(ALPHA)))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("some baseline supports every paper workload");
            PaperWorkload {
                name,
                workload,
                best_baseline,
            }
        })
        .collect();
    Setup {
        workloads,
        data: ldp_data::hepth(64, seed),
        lbfgs_gram: AllRange::new(LBFGS_N).gram(),
    }
}

/// The ε-LDP property, checked by this loop rather than the library's:
/// every column is a distribution, and within every row the largest
/// entry is at most e^ε times the smallest.
fn ldp_violation(strategy: &StrategyMatrix, epsilon: f64) -> Option<String> {
    let q = strategy.matrix();
    let (m, n) = q.shape();
    for u in 0..n {
        let mut sum = 0.0;
        for o in 0..m {
            let v = q.row(o)[u];
            if v < 0.0 {
                return Some(format!("entry ({o},{u}) = {v} is negative"));
            }
            sum += v;
        }
        if (sum - 1.0).abs() > 1e-9 {
            return Some(format!("column {u} sums to {sum}"));
        }
    }
    let bound = epsilon.exp() * (1.0 + 1e-9);
    for o in 0..m {
        let row = q.row(o);
        let lo = row.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = row.iter().copied().fold(0.0, f64::max);
        if hi > bound * lo {
            return Some(format!("row {o}: max {hi} > e^eps * min {lo}"));
        }
    }
    None
}

pub(crate) fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let (setup, mut setup_times) = repeated_setup(SETUP_REPEATS, |_| setup(ctx.seed), drop);
    let config = OptimizerConfig::new(ctx.seed);
    let lbfgs = OptimizerConfig::lbfgs(LBFGS_SEED);

    let mut tracer = Tracer::new(ctx.trace);
    let mut round_s = Vec::new();
    let mut traced_round_s = Vec::new();
    let mut deploy_ms = Vec::new();
    let mut sample_complexity = f64::NAN;
    let mut last_prefix = None;
    let mut lbfgs_note = String::new();
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
        // The traced run alternates untraced and traced rounds, so the
        // tracing overhead is measured in one process.
        let traced = ctx.trace && round % 2 == 1;
        tracer.set_enabled(traced);
        let registry_dir = ctx.dir.join(format!("registry-{round}"));
        let registry = StrategyRegistry::open(&registry_dir).expect("open registry");

        let span = tracer.begin("round", None);
        let t_round = Instant::now();
        let mut deployed = Vec::with_capacity(setup.workloads.len());
        for w in &setup.workloads {
            let t = Instant::now();
            let (dep, outcome) = tracer.time("deploy.cold", span, || {
                Pipeline::for_shared_workload(Arc::clone(&w.workload))
                    .epsilon(EPSILON)
                    .optimized_cached(&config, &registry)
                    .expect("cold deploy")
            });
            deploy_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            out.check(outcome == CacheOutcome::Cold, || {
                format!("{}: deploy into a fresh registry was {outcome:?}", w.name)
            });
            deployed.push(dep);
        }
        let elapsed = t_round.elapsed().as_secs_f64();
        if traced {
            traced_round_s.push(elapsed);
        } else {
            round_s.push(elapsed);
        }

        // Untimed checks: ε-LDP, better than every baseline, warm hit.
        let mut total = 0.0;
        for (w, dep) in setup.workloads.iter().zip(&deployed) {
            let strategy = dep.mechanism().strategy().expect("optimized strategy");
            let violation = tracer.time("check.ldp", span, || ldp_violation(strategy, EPSILON));
            out.check(violation.is_none(), || {
                format!("{}: not eps-LDP: {}", w.name, violation.unwrap_or_default())
            });
            let sc = dep.sample_complexity(ALPHA);
            out.check(sc < w.best_baseline.1, || {
                format!(
                    "{}: optimized needs {sc} users, baseline {} needs {}",
                    w.name, w.best_baseline.0, w.best_baseline.1
                )
            });
            total += sc;

            let (warm, outcome) = tracer.time("deploy.warm", span, || {
                Pipeline::for_shared_workload(Arc::clone(&w.workload))
                    .epsilon(EPSILON)
                    .optimized_cached(&config, &registry)
                    .expect("warm deploy")
            });
            out.attempted += 1;
            let warm_strategy = warm.mechanism().strategy().expect("warm strategy");
            out.check(
                outcome == CacheOutcome::Warm
                    && warm_strategy.matrix().as_slice() == strategy.matrix().as_slice(),
                || {
                    format!(
                        "{}: warm redeploy was {outcome:?} or not bit-identical",
                        w.name
                    )
                },
            );
        }
        out.check(
            sample_complexity.is_nan() || total.to_bits() == sample_complexity.to_bits(),
            || format!("sample complexity moved between rounds: {sample_complexity} -> {total}"),
        );
        sample_complexity = total;

        // The known fault: L-BFGS must improve on its own start.
        let result = tracer.time("opt.lbfgs", span, || {
            optimize_strategy(&setup.lbfgs_gram, EPSILON, &lbfgs).expect("L-BFGS run")
        });
        out.attempted += 1;
        let improved = result.objective < result.history[0];
        if !improved {
            out.failed += 1;
            lbfgs_note = format!(
                "L-BFGS on All Range({LBFGS_N}) returned its start: objective {:.6e} = history[0] after {} evaluation(s)",
                result.objective, result.evaluations
            );
        }
        tracer.end(span);

        last_prefix = deployed.into_iter().next();
        let _ = std::fs::remove_dir_all(&registry_dir);
        for _ in 0..SETUPS_PER_ROUND {
            drop(timed_setup(&mut setup_times, || self::setup(ctx.seed)));
        }
        round += 1;
    }
    if !lbfgs_note.is_empty() {
        println!("known fault (counted in failed): {lbfgs_note}");
    }

    let prefix = last_prefix.expect("at least one round ran");
    check_unbiased(&mut out, &prefix, &setup.data, ctx.seed);

    println!("{}", describe("round", "s", &round_s));
    println!("{}", describe("cold deploy", "ms", &deploy_ms));
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
        // The median round's three cold deploys, so a change to any one
        // of the paper workloads shows (the median single deploy would
        // only follow the middle one).
        out.metric("op_p50_ms", "ms", median(&round_s) * 1e3);
        out.metric("sample_complexity", "users", sample_complexity);
    }
    out
}

/// Repeated `simulate` trials on HEPTH-shaped data: every workload
/// answer's mean error lies within `Z` standard errors of zero, and the
/// mean total squared error lies within `Z` standard errors of the
/// analytic variance Σ_u x_u T_u (Theorem 3.4).
fn check_unbiased(out: &mut Outcome, dep: &Deployment, data: &DataVector, seed: u64) {
    let truth = dep.workload().evaluate(data.counts());
    let p = truth.len();
    let mut sum = vec![0.0; p];
    let mut sumsq = vec![0.0; p];
    let mut errors = Vec::with_capacity(TRIALS);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x51_u64 << 32));
    for _ in 0..TRIALS {
        let answers = dep.simulate(data, &mut rng).answers();
        let mut err = 0.0;
        for i in 0..p {
            let d = answers[i] - truth[i];
            sum[i] += d;
            sumsq[i] += d * d;
            err += d * d;
        }
        errors.push(err);
    }
    let t = TRIALS as f64;
    for i in 0..p {
        let mean = sum[i] / t;
        let var = (sumsq[i] - t * mean * mean) / (t - 1.0);
        let se = (var / t).sqrt();
        // Floating-point slack for answers with (near) zero variance,
        // such as the total count.
        let slack = 1e-9 * truth[i].abs().max(1.0);
        out.check(mean.abs() <= Z * se + slack, || {
            format!("simulate: query {i} mean error {mean} exceeds {Z} standard errors ({se})")
        });
    }
    let analytic: f64 = dep
        .variance_profile()
        .iter()
        .zip(data.counts())
        .map(|(t_u, x_u)| t_u * x_u)
        .sum();
    let mean_err = errors.iter().sum::<f64>() / t;
    let var_err = errors.iter().map(|e| (e - mean_err).powi(2)).sum::<f64>() / (t - 1.0);
    let margin = Z * (var_err / t).sqrt();
    out.check((mean_err - analytic).abs() <= margin, || {
        format!("simulate: mean squared error {mean_err} vs analytic {analytic} (margin {margin})")
    });
}
