//! Per-layer probes for the traced run. Each metric is timed (or
//! counted) around calls into one crate's public functions, on inputs
//! made from the run's seed and shaped like the workload that layer
//! serves. The README maps every metric to the end-to-end metric and
//! workload it should move.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ldp::prelude::*;
use ldp_core::protocol::validate_reports;
use ldp_core::variance::variance_profile_explicit;
use ldp_serve::wire::{decode_frame, encode_frame};
use ldp_serve::Message;
use ldp_sparse::{decode_sparse_checkpoint, encode_sparse_checkpoint, SparseCheckpoint};
use ldp_workloads::SchemaWorkload;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ingest_wire::DENSE_BATCH;
use crate::inputs::{
    adhoc_query, dashboard_deployment, dense_reports, start, survey_deployment, Keys, EPSILON,
};
use crate::report::Outcome;
use crate::stats::{median, ms_since};
use crate::trace::Tracer;
use crate::Ctx;

/// Reports in the bulk per-report probes.
const BULK: usize = 1 << 20;

/// Runs `f` `reps` times, each as one span named `name`, and returns the
/// median span duration in milliseconds.
fn median_ms<R>(tr: &mut Tracer, name: &'static str, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..reps {
        tr.time(name, None, || black_box(f()));
    }
    median(&tr.durations_ms(name))
}

/// Runs every probe, adding its metrics (and any failed check) to `out`.
pub(crate) fn probe_all(ctx: &Ctx, out: &mut Outcome) {
    let mut tr = Tracer::new(true);
    let mut rng = StdRng::seed_from_u64(ctx.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));

    optimizer(out, &mut tr, ctx.seed);
    workloads(out, &mut tr, &mut rng);
    dense_ingest(out, &mut tr, &mut rng);
    read_path(out, &mut tr, &mut rng);
    store(out, &mut tr, ctx, &mut rng);
    sparse(out, &mut tr, &mut rng);

    for line in tr.summary() {
        println!("{line}");
    }
}

/// ldp-opt and ldp-linalg at the paper_deploy Prefix(64) problem.
fn optimizer(out: &mut Outcome, tr: &mut Tracer, seed: u64) {
    let n = 64;
    let gram = Prefix::new(n).gram();
    let config = OptimizerConfig::new(seed);
    let result = tr.time("opt.optimize_strategy", None, || {
        optimize_strategy(&gram, EPSILON, &config).expect("PGD run")
    });
    let total_ms = tr.durations_ms("opt.optimize_strategy")[0];
    let m = config.resolved_num_outputs(n);
    let (mf, nf) = (m as f64, n as f64);
    out.metric("opt.evaluations", "count", result.evaluations as f64);
    out.metric(
        "opt.ms_per_evaluation",
        "ms",
        total_ms / result.evaluations as f64,
    );
    // QᵀB and B·H (2mn² each), one Cholesky (n³/3) and 2n solves
    // against it (2n³ each pass): the leading terms of one evaluation.
    out.metric(
        "opt.flops_per_evaluation",
        "flop",
        4.0 * mf * nf * nf + 13.0 / 3.0 * nf * nf * nf,
    );
    out.metric("opt.objective", "L", result.objective);

    let q = result.strategy.matrix();
    let mut product = Matrix::zeros(n, n);
    let ms = median_ms(tr, "linalg.t_matmul_into", 400, || {
        q.t_matmul_into(q, &mut product)
    });
    out.metric(
        "linalg.matmul_gflops",
        "GFLOP/s",
        2.0 * mf * nf * nf / (ms * 1e-3) / 1e9,
    );

    let ms = median_ms(tr, "core.factorization_mechanism", 5, || {
        FactorizationMechanism::new(result.strategy.clone(), &gram, EPSILON)
            .expect("mechanism from an optimized strategy")
    });
    out.metric("core.mechanism_build_ms", "ms", ms);
}

/// ldp-workloads: Gram assembly of the paper_deploy workloads and
/// `Query::resolve` of the query_mix ad-hoc queries.
fn workloads(out: &mut Outcome, tr: &mut Tracer, rng: &mut StdRng) {
    let marginals = SchemaWorkload::new(
        Arc::new(Schema::new([("a", 4), ("b", 4), ("c", 4)])),
        &[
            Query::marginal(["a", "b"]),
            Query::marginal(["b", "c"]),
            Query::marginal(["a", "c"]),
        ],
    )
    .expect("valid marginals workload");
    let paper: [Box<dyn Workload>; 3] = [
        Box::new(Prefix::new(64)),
        Box::new(AllRange::new(64)),
        Box::new(marginals),
    ];
    let ms = median_ms(tr, "workloads.gram", 9, || {
        paper
            .iter()
            .map(|w| w.gram().to_dense())
            .collect::<Vec<_>>()
    });
    out.metric("workloads.gram_ms", "ms", ms);

    let schema = Schema::new([("region", 8), ("age", 8), ("income", 8)]);
    let queries: Vec<Query> = (0..64).map(|_| adhoc_query(rng)).collect();
    let ms = median_ms(tr, "workloads.resolve", 50, || {
        for q in &queries {
            black_box(q.resolve(&schema).expect("resolves"));
        }
    });
    out.metric(
        "workloads.resolve_us",
        "us",
        ms * 1e3 / queries.len() as f64,
    );
}

/// ldp-core client and shard, ldp-serve codec and the Submit round trip,
/// on the ingest_wire survey deployment.
fn dense_ingest(out: &mut Outcome, tr: &mut Tracer, rng: &mut StdRng) {
    let dep = survey_deployment();
    let m = dep.mechanism().num_outputs();
    let (reports, _) = dense_reports(&dep, BULK, rng);
    let n = dep.workload().domain_size();
    let client = dep.client();
    let ms = median_ms(tr, "core.respond", 3, || {
        (0..BULK)
            .map(|i| client.respond(i % n, &mut *rng))
            .sum::<usize>()
    });
    out.metric("core.respond_per_s", "1/s", BULK as f64 / (ms * 1e-3));

    let wide: Vec<usize> = reports.iter().map(|&r| r as usize).collect();
    let ms = median_ms(tr, "core.validate_reports", 9, || {
        validate_reports(&wide, m)
    });
    out.metric("core.validate_per_s", "1/s", BULK as f64 / (ms * 1e-3));
    let ms = median_ms(tr, "core.shard_ingest", 9, || {
        let mut shard = dep.shard();
        shard.ingest_batch(&wide).expect("valid reports");
        shard
    });
    out.metric("core.shard_ingest_per_s", "1/s", BULK as f64 / (ms * 1e-3));

    let batch = reports[..DENSE_BATCH].to_vec();
    let request = Message::Submit {
        deployment: "survey".into(),
        reports: batch.clone(),
    };
    let frame = encode_frame(&request);
    let encode_ms = median_ms(tr, "wire.encode_frame", 400, || encode_frame(&request));
    let decode_ms = median_ms(tr, "wire.decode_frame", 400, || {
        decode_frame(&frame).expect("round trip")
    });
    out.metric(
        "wire.encode_per_s",
        "1/s",
        DENSE_BATCH as f64 / (encode_ms * 1e-3),
    );
    out.metric(
        "wire.decode_per_s",
        "1/s",
        DENSE_BATCH as f64 / (decode_ms * 1e-3),
    );
    out.metric(
        "wire.bytes_per_report",
        "B",
        frame.len() as f64 / DENSE_BATCH as f64,
    );

    // The in-process share of one Submit: encode, decode, validate and
    // absorb of the same batch; the rest of the round trip is socket and
    // server scheduling.
    let batch_wide: Vec<usize> = batch.iter().map(|&r| r as usize).collect();
    let mut shard = dep.shard();
    let local_ms = median_ms(tr, "serve.in_process_submit", 400, || {
        let frame = encode_frame(&request);
        let decoded = decode_frame(&frame).expect("round trip");
        validate_reports(&batch_wide, m).expect("valid");
        shard.ingest_batch(&batch_wide).expect("valid");
        decoded
    });
    let (mut server, _) = start(None, &[("survey", &dep)], &[]);
    let rt_ms = median_ms(tr, "serve.submit_round_trip", 400, || {
        server.client.submit("survey", &batch).expect("submit")
    });
    server.stop();
    out.metric("serve.submit_unattributed_ms", "ms", rt_ms - local_ms);
}

/// ldp (pipeline) and ldp-core variance on the query_mix dashboard
/// deployment.
fn read_path(out: &mut Outcome, tr: &mut Tracer, rng: &mut StdRng) {
    let dep = dashboard_deployment();
    let (reports, _) = dense_reports(&dep, BULK / 4, rng);
    let wide: Vec<usize> = reports.iter().map(|&r| r as usize).collect();
    let aggregator = dep.aggregate(&wide).expect("valid reports");
    let queries: Vec<Query> = (0..16).map(|_| adhoc_query(rng)).collect();

    let ms = median_ms(tr, "pipeline.estimate", 20, || dep.estimate(&aggregator));
    out.metric("pipeline.estimate_ms", "ms", ms);
    let estimate = dep.estimate(&aggregator);
    let mut i = 0;
    let ms = median_ms(tr, "pipeline.answer", 48, || {
        i += 1;
        estimate
            .answer(&queries[i % queries.len()])
            .expect("answer")
    });
    out.metric("pipeline.answer_ms", "ms", ms);
    let ms = median_ms(tr, "pipeline.answers", 20, || estimate.answers());
    out.metric("pipeline.answers_ms", "ms", ms);

    // The per-query variance profile Estimate::answer builds: V = (Kᵀw)ᵀ.
    let schema = dep.schema().expect("schema deployment");
    let resolved = queries[0].resolve(schema).expect("resolves");
    let mut w = vec![0.0; dep.workload().domain_size()];
    resolved.fill_row(0, &mut w);
    let v = dep.mechanism().reconstruction_matrix().t_matvec(&w);
    let v = Matrix::from_vec(1, v.len(), v);
    let q = dep.mechanism().strategy().expect("strategy").matrix();
    let ms = median_ms(tr, "core.variance_profile", 20, || {
        variance_profile_explicit(&v, q)
    });
    out.metric("core.variance_profile_ms", "ms", ms);
}

/// Checkpoint and resume of both ingest_wire deployments' state:
/// encode plus atomic write, and read plus decode plus resume.
fn store(out: &mut Outcome, tr: &mut Tracer, ctx: &Ctx, rng: &mut StdRng) {
    let dense = survey_deployment();
    let sparse = SparseDeployment::hadamard("url", EPSILON, crate::ingest_wire::SPARSE_BITS)
        .expect("sparse deployment");
    let (reports, _) = dense_reports(&dense, BULK, rng);
    let wide: Vec<usize> = reports.iter().map(|&r| r as usize).collect();
    let mut stream = dense.stream();
    stream.ingest_batch(&wide).expect("valid");
    let keys = Keys::new();
    let (sparse_reports, _) = keys.reports(&sparse, BULK / 4, rng);
    let mut ingestor = sparse.ingestor();
    let mut shard = SparseShard::new();
    shard.absorb_batch(&sparse_reports);
    ingestor.absorb_shard(&mut shard);

    let dense_path = ctx.dir.join("probe-dense.ldpc");
    let sparse_path = ctx.dir.join("probe-sparse.ldpc");
    std::fs::create_dir_all(&ctx.dir).expect("scratch dir");
    let write = |path: &std::path::Path, bytes: &[u8]| {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, bytes).expect("write snapshot");
        std::fs::rename(&tmp, path).expect("rename snapshot");
    };
    let mut bytes = 0usize;
    let ms = median_ms(tr, "store.checkpoint", 9, || {
        let dense_bytes = stream.checkpoint();
        let reports = ingestor.reports();
        let (epoch, batches, binding, pairs) = ingestor.checkpoint();
        let sparse_bytes = encode_sparse_checkpoint(&SparseCheckpoint {
            epoch,
            batches,
            binding,
            reports,
            pairs,
        });
        write(&dense_path, &dense_bytes);
        write(&sparse_path, &sparse_bytes);
        bytes = dense_bytes.len() + sparse_bytes.len();
    });
    out.metric("store.checkpoint_ms", "ms", ms);
    out.metric("store.snapshot_bytes", "B", bytes as f64);

    let ms = median_ms(tr, "store.resume", 9, || {
        let dense_bytes = std::fs::read(&dense_path).expect("read snapshot");
        let resumed = dense.resume(&dense_bytes).expect("resume dense");
        let sparse_bytes = std::fs::read(&sparse_path).expect("read snapshot");
        let cp = decode_sparse_checkpoint(&sparse_bytes, sparse.binding()).expect("decode");
        let sparse_resumed = SparseIngestor::resume(cp.binding, cp.epoch, cp.batches, &cp.pairs);
        (resumed, sparse_resumed)
    });
    out.metric("store.resume_ms", "ms", ms);
    let resumed = dense
        .resume(&std::fs::read(&dense_path).expect("read"))
        .expect("resume");
    out.check(resumed.reports() == BULK as u64, || {
        "resumed stream lost reports".into()
    });
}

/// ldp-sparse client, shard and reads at the query_mix shape.
fn sparse(out: &mut Outcome, tr: &mut Tracer, rng: &mut StdRng) {
    let dep = SparseDeployment::hadamard("url", EPSILON, crate::query_mix::SPARSE_BITS)
        .expect("sparse deployment");
    let keys = Keys::new();
    let client = dep.client();
    let (reports, _) = keys.reports(&dep, BULK, rng);
    let ms = median_ms(tr, "sparse.respond", 3, || {
        keys.hashes.iter().cycle().take(BULK).fold(0u64, |acc, &h| {
            acc.wrapping_add(client.respond_hashed(h, &mut *rng))
        })
    });
    out.metric("sparse.respond_per_s", "1/s", BULK as f64 / (ms * 1e-3));

    let ms = median_ms(tr, "sparse.absorb", 3, || {
        let mut shard = SparseShard::new();
        shard.absorb_batch(&reports);
        shard
    });
    out.metric("sparse.absorb_per_s", "1/s", BULK as f64 / (ms * 1e-3));

    let mut ingestor = dep.ingestor();
    let mut shard = SparseShard::new();
    shard.absorb_batch(&reports);
    ingestor.absorb_shard(&mut shard);
    let pairs = ingestor.pairs().to_vec();
    let candidates: Vec<u64> = keys.hashes[..40].to_vec();
    let ms = median_ms(tr, "sparse.heavy_hitters", 20, || {
        dep.heavy_hitters(&pairs, &candidates, 10, 5.0)
    });
    out.metric("sparse.heavy_hitters_ms", "ms", ms);
    let ms = median_ms(tr, "sparse.point", 200, || {
        dep.point(&pairs, keys.hashes[0])
    });
    out.metric("sparse.point_us", "us", ms * 1e3);

    // Merge barrier, over one connection: a served point read right
    // after a small write, and the same read on unchanged state. Both
    // figures are kept: the barrier's own merge of a 64-report shard is
    // below the noise, and what separates them is whether the read has
    // to rebuild the sorted state.
    let (mut server, _) = start(None, &[], &[("urls", &dep)]);
    for batch in reports.chunks(DENSE_BATCH) {
        server
            .client
            .submit_sparse("urls", batch)
            .expect("pre-load");
    }
    server.client.info().expect("merge the pre-load");
    let small = &reports[..64];
    let (mut after_write, mut unchanged) = (Vec::new(), Vec::new());
    for _ in 0..40 {
        server.client.submit_sparse("urls", small).expect("submit");
        for samples in [&mut after_write, &mut unchanged] {
            let t = Instant::now();
            server
                .client
                .point_hashed("urls", keys.hashes[0])
                .expect("point");
            samples.push(ms_since(t));
        }
    }
    server.stop();
    out.metric("serve.read_after_write_ms", "ms", median(&after_write));
    out.metric("serve.read_unchanged_ms", "ms", median(&unchanged));
}
