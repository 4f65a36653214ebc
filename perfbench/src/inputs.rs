//! Seeded inputs and the deployments the serving workloads host. Every
//! input is a pure function of the run's `--seed`; the program under
//! test only ever sees the generated reports and queries.

use std::path::PathBuf;

use ldp::prelude::*;
use ldp_serve::{ServeClient, Server, ServerConfig, ServerHandle};
use ldp_sparse::SparseOracle;
use rand::rngs::StdRng;
use rand::Rng;

/// Privacy budget of every deployment in the benchmark.
pub(crate) const EPSILON: f64 = 1.0;

/// Zipf exponent of the open-domain key streams.
pub(crate) const ZIPF_S: f64 = 1.1;

/// Distinct keys in the open-domain universe.
pub(crate) const KEYS: usize = 10_000;

/// Inverse-CDF sampler over a finite distribution.
pub(crate) struct Sampler {
    cdf: Vec<f64>,
}

impl Sampler {
    pub(crate) fn new(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    pub(crate) fn draw(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The open-domain key universe: key hashes by Zipf rank (rank 0 is the
/// most frequent key) and a sampler over ranks.
pub(crate) struct Keys {
    pub(crate) hashes: Vec<u64>,
    sampler: Sampler,
}

impl Keys {
    pub(crate) fn new() -> Self {
        let hashes = (0..KEYS).map(|i| key_hash(&key_name(i))).collect();
        let weights: Vec<f64> = (0..KEYS).map(|r| ((r + 1) as f64).powf(-ZIPF_S)).collect();
        Self {
            hashes,
            sampler: Sampler::new(&weights),
        }
    }

    /// `count` privatised reports of Zipf-drawn keys, with how many
    /// times each key rank was drawn.
    pub(crate) fn reports(
        &self,
        deployment: &SparseDeployment,
        count: usize,
        rng: &mut StdRng,
    ) -> (Vec<u64>, Vec<u64>) {
        let client = deployment.client();
        let mut drawn = vec![0u64; KEYS];
        let reports = (0..count)
            .map(|_| {
                let rank = self.sampler.draw(rng);
                drawn[rank] += 1;
                client.respond_hashed(self.hashes[rank], rng)
            })
            .collect();
        (reports, drawn)
    }
}

/// The string form of the key at Zipf rank `i`.
pub(crate) fn key_name(i: usize) -> String {
    format!("https://site-{i}.example/")
}

/// Keys outside the universe whose Hadamard buckets hold no universe
/// key, so their true count is exactly zero: heavy-hitter decoys.
pub(crate) fn decoys(deployment: &SparseDeployment, keys: &Keys, count: usize) -> Vec<u64> {
    let SparseOracle::Hadamard(oracle) = deployment.oracle() else {
        panic!("decoys need a Hadamard oracle");
    };
    let mut used = vec![false; oracle.buckets() as usize];
    for &h in &keys.hashes {
        used[oracle.bucket_of(h) as usize] = true;
    }
    (0..)
        .map(|i| key_hash(&format!("https://decoy-{i}.example/")))
        .filter(|&h| !used[oracle.bucket_of(h) as usize])
        .take(count)
        .collect()
}

/// True count of everything sharing `key`'s Hadamard bucket — the
/// quantity the oracle's point estimate is unbiased for.
pub(crate) fn bucket_count(
    deployment: &SparseDeployment,
    keys: &Keys,
    drawn: &[u64],
    key: u64,
) -> u64 {
    let SparseOracle::Hadamard(oracle) = deployment.oracle() else {
        panic!("bucket counts need a Hadamard oracle");
    };
    let bucket = oracle.bucket_of(key);
    keys.hashes
        .iter()
        .zip(drawn)
        .filter(|(&h, _)| oracle.bucket_of(h) == bucket)
        .map(|(_, &c)| c)
        .sum()
}

/// `count` privatised dense reports from users drawn from a
/// DPBench-shaped (HEPTH-like) distribution over the deployment's
/// domain, with the tally of reports per mechanism output.
pub(crate) fn dense_reports(
    deployment: &Deployment,
    count: usize,
    rng: &mut StdRng,
) -> (Vec<u64>, Vec<u64>) {
    let n = deployment.workload().domain_size();
    let types = Sampler::new(ldp_data::hepth_shape(n).probabilities());
    let client = deployment.client();
    let mut tally = vec![0u64; deployment.mechanism().num_outputs()];
    let reports = (0..count)
        .map(|_| {
            let report = client.respond(types.draw(rng), rng);
            tally[report] += 1;
            report as u64
        })
        .collect();
    (reports, tally)
}

/// An in-process server and the one client connection that drives it.
pub(crate) struct Running {
    pub(crate) handle: ServerHandle,
    pub(crate) client: ServeClient,
}

impl Running {
    /// Shuts the server down (persisting final snapshots when it has a
    /// directory) and waits for it to exit.
    pub(crate) fn stop(mut self) {
        self.client.shutdown().expect("shutdown request");
        self.handle.join().expect("server exit");
    }
}

/// Binds an in-process server with one connection worker, hosts the
/// given deployments, and connects one client. Returns, per deployment,
/// whether it resumed from a snapshot in `dir`.
pub(crate) fn start(
    dir: Option<PathBuf>,
    dense: &[(&str, &Deployment)],
    sparse: &[(&str, &SparseDeployment)],
) -> (Running, Vec<bool>) {
    let mut server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        dir,
        workers: 1,
    })
    .expect("bind server");
    let mut resumed = Vec::new();
    for (name, dep) in dense {
        resumed.push(server.host(name, (*dep).clone()).expect("host dense"));
    }
    for (name, dep) in sparse {
        resumed.push(
            server
                .host_sparse(name, (*dep).clone())
                .expect("host sparse"),
        );
    }
    let handle = server.spawn().expect("spawn server");
    let client = ServeClient::connect(handle.addr()).expect("connect");
    (Running { handle, client }, resumed)
}

/// The `ingest_wire` dense deployment: what `ldp-served --deploy
/// survey:region=8,age=8,device=4` hosts — the full contingency table
/// plus the total, under randomized response (256 cells).
pub(crate) fn survey_deployment() -> Deployment {
    Pipeline::for_schema(Schema::new([("region", 8), ("age", 8), ("device", 4)]))
        .queries([Query::marginal(["region", "age", "device"]), Query::total()])
        .epsilon(EPSILON)
        .baseline(Baseline::RandomizedResponse)
        .expect("closed-form survey deployment")
}

/// The `query_mix` schema deployment (512 cells under Hadamard
/// response, m = 1024 outputs), large enough that one ad-hoc read costs
/// milliseconds. Its first two workload rows are scalar queries, so
/// their answers sit at known indices of `answers`.
pub(crate) fn dashboard_deployment() -> Deployment {
    Pipeline::for_schema(Schema::new([("region", 8), ("age", 8), ("income", 8)]))
        .queries(dashboard_queries())
        .epsilon(EPSILON)
        .baseline(Baseline::HadamardResponse)
        .expect("closed-form dashboard deployment")
}

/// The declared `query_mix` workload; rows 0 and 1 are scalar.
pub(crate) fn dashboard_queries() -> Vec<Query> {
    vec![
        Query::range("age", 2..6),
        Query::equals("region", 3),
        Query::marginal(["region", "age"]),
        Query::marginal(["income"]),
        Query::total(),
    ]
}

/// A seeded ad-hoc scalar query over the dashboard schema: a range on
/// one attribute, optionally restricted to one value of another.
pub(crate) fn adhoc_query(rng: &mut StdRng) -> Query {
    const ATTRS: [&str; 3] = ["region", "age", "income"];
    let a: usize = rng.gen_range(0..3);
    let lo: usize = rng.gen_range(0..7);
    let hi: usize = rng.gen_range(lo + 1..9);
    let query = Query::range(ATTRS[a], lo..hi);
    if rng.gen_bool(0.5) {
        let b = (a + 1 + rng.gen_range(0..2usize)) % 3;
        query.and_equals(ATTRS[b], rng.gen_range(0..8usize))
    } else {
        query
    }
}
