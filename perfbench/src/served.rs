//! `served_2k`: 1:N identification served by two `study serve-shard`
//! children through `Coordinator::search`: a closed loop with one client,
//! then an open loop at a fixed ladder of arrival rates and a burst.
//!
//! Set-up enrolls each shard's round-robin slice of a 2k gallery, persists
//! it with `fp-store`, and starts one `serve-shard --gallery-dir` child per
//! slice. At 2k the re-rank is most of a search's compute, and wire,
//! queueing, scatter-gather and store start-up exist only here. Store
//! writes sit in set-up, so a durability change that slows saving shows in
//! `setup_s` and not in latency.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use fp_core::template::Template;
use fp_index::shard::{globalize_and_sort, merge_sorted_parts, select_per_shard, stitch_stage_one};
use fp_index::{CandidateIndex, IndexConfig, SearchResult, ShardBackend};
use fp_match::PairTableMatcher;
use fp_serve::proc::{spawn_shard, ShardChild};
use fp_serve::{Coordinator, RemoteShard, RetryPolicy};
use fp_store::GalleryStore;
use fp_telemetry::{RunFingerprint, Telemetry};

use crate::common::{
    code_stamp, mean, median, peak_rss_mb, quantile, secs, threads, Args, HostSpeed, Outcome,
    WorkDir,
};
use crate::inputs::{per_probe_mean, Inputs, Probe};
use crate::search::{config_stamp, result_chain, sizes, Index, CALIBRATE_EVERY};

const GALLERY: usize = 2_000;
const PROBES: usize = 150;
const SHARDS: usize = 2;
const SETUP_REPEATS: usize = 3;
/// Generator threads, each owning at most one request in flight on the
/// coordinator's multiplexed shard connections.
const MAX_CLIENTS: usize = 2;
/// Open-loop rungs: (arrivals per second, share of `--seconds`), in
/// ascending rate. Fixed, so every commit is offered the same load.
const LADDER: &[(f64, f64)] = &[
    (4.0, 0.05),
    (10.0, 0.2),
    (16.0, 0.05),
    (24.0, 0.05),
    (32.0, 0.05),
    (40.0, 0.05),
];
/// The ladder's reference rate: its generator lag is `fp-serve.gen_lag_ms`.
const REFERENCE_RUNG: usize = 1;
/// Share of `--seconds` spent, before the ladder, in a closed loop with one
/// client: its latencies are `p50_ms` and `p90_ms`. Open-loop latency at
/// light load on a shared 2-vCPU host spread 21% (p50) and 26% (p90) over
/// ten seeds, mostly from how fast idle vCPUs wake; a closed loop keeps
/// one request in flight and measures the serving path itself. It gets
/// the larger share of the run because its spread over ten seeds still
/// exceeds that of the in-process search.
const CLOSED_SHARE: f64 = 0.55;
/// A rung is sustained when its p99 and the generator's final lag both
/// stay under this limit and no request fails.
const P99_LIMIT_MS: f64 = 250.0;
/// After the ladder, this many requests are due at once: the completion
/// rate of that burst is the served throughput (capacity at the client
/// count above).
const BURST: usize = 150;
const TINY_BURST: usize = 10;
const REPLICA_PROBES: usize = 5;
const RPC_DEADLINE: Duration = Duration::from_secs(30);

fn clients() -> usize {
    MAX_CLIENTS.min(threads())
}

/// Two shard children serving persisted galleries, and their coordinator.
struct Topology {
    children: Vec<ShardChild>,
    coordinator: Coordinator,
    /// In-process indexes over the same shard slices.
    local: Vec<Index>,
    config: IndexConfig,
    enroll_s: f64,
    save_s: f64,
    bytes: u64,
    start_s: f64,
    // Dropped last: the children serve files from it.
    _dir: WorkDir,
}

impl Topology {
    fn deploy(seed: u64, gallery: &[Template], study_exe: &Path) -> Result<Topology, String> {
        let dir = WorkDir::new("served").map_err(|e| format!("work dir: {e}"))?;
        let config = IndexConfig::scaled(gallery.len());
        // Round-robin deal: global id = local id * SHARDS + shard.
        let start = Instant::now();
        let local: Vec<Index> = (0..SHARDS)
            .map(|k| {
                let slice: Vec<Template> =
                    gallery.iter().skip(k).step_by(SHARDS).cloned().collect();
                let mut index = CandidateIndex::with_config(PairTableMatcher::default(), config);
                index.enroll_all(&slice);
                index
            })
            .collect();
        let enroll_s = secs(start.elapsed());

        let start = Instant::now();
        let mut dirs = Vec::new();
        for (k, index) in local.iter().enumerate() {
            let path = dir.0.join(format!("shard{k}"));
            GalleryStore::create(&path)
                .and_then(|mut store| store.append_index(index))
                .map_err(|e| format!("save shard {k}: {e}"))?;
            dirs.push(path);
        }
        let save_s = secs(start.elapsed());
        let bytes = dirs.iter().map(|d| dir_bytes(d)).sum();

        let start = Instant::now();
        let mut children = Vec::new();
        for path in &dirs {
            let path = path.to_str().ok_or("work dir is not UTF-8")?;
            children.push(
                spawn_shard(study_exe, &["serve-shard", "--gallery-dir", path])
                    .map_err(|e| format!("spawn {}: {e}", study_exe.display()))?,
            );
        }
        let start_s = secs(start.elapsed()) / SHARDS as f64;
        let addrs: Vec<_> = children.iter().map(|c| c.addr).collect();
        let coordinator =
            Coordinator::connect(&addrs, config, RPC_DEADLINE, RetryPolicy::default())
                .map_err(|e| format!("connect: {e}"))?
                .with_run_seed(seed);
        Ok(Topology {
            children,
            coordinator,
            local,
            config,
            enroll_s,
            save_s,
            bytes,
            start_s,
            _dir: dir,
        })
    }

    fn connect(&self, seed: u64) -> Result<Coordinator, String> {
        let addrs: Vec<_> = self.children.iter().map(|c| c.addr).collect();
        Coordinator::connect(&addrs, self.config, RPC_DEADLINE, RetryPolicy::default())
            .map(|c| c.with_run_seed(seed))
            .map_err(|e| format!("connect: {e}"))
    }

    /// Peak resident memory of the children, read while they still run.
    fn children_rss_mb(&self) -> f64 {
        self.children
            .iter()
            .map(|c| peak_rss_mb(Some(c.id())))
            .sum()
    }

    /// Stops the children over the wire and waits for them to exit.
    fn shutdown(mut self) {
        let _ = self.coordinator.shutdown_all();
        for child in &mut self.children {
            child.wait_exit(Duration::from_secs(5));
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One served request: which probe, and the chain of its candidate list
/// (`None` when the search failed).
struct Response {
    probe: usize,
    chain: Option<u64>,
}

struct Rung {
    rate: f64,
    sent: usize,
    failed: usize,
    latency_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    wall_s: f64,
}

impl Rung {
    fn sustained(&self) -> bool {
        self.failed == 0
            && quantile(&self.latency_ms, 0.99) <= P99_LIMIT_MS
            && self.lag_ms.last().is_none_or(|lag| *lag <= P99_LIMIT_MS)
    }
}

/// Sends `count` requests due `1/rate` apart (all at once for an infinite
/// rate), each timed from its due time, from `clients()` threads.
fn rung(
    coordinator: &Coordinator,
    probes: &[Probe],
    seed: u64,
    first_probe: usize,
    rate: f64,
    count: usize,
) -> (Rung, Vec<Response>) {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut done: Vec<(usize, f64, f64, Option<u64>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients())
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= count {
                            return mine;
                        }
                        let due = start + Duration::from_secs_f64(j as f64 / rate);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let probe = (first_probe + j) % probes.len();
                        let result = coordinator.search(&probes[probe].template);
                        let latency = secs(Instant::now().duration_since(due)) * 1e3;
                        let lag = secs(sent.saturating_duration_since(due)) * 1e3;
                        let chain = result.ok().map(|r| result_chain(seed, &r));
                        mine.push((j, latency, lag, chain));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("generator thread panicked"))
            .collect()
    });
    let wall_s = secs(start.elapsed());
    done.sort_by_key(|d| d.0);
    let rung = Rung {
        rate,
        sent: count,
        failed: done.iter().filter(|d| d.3.is_none()).count(),
        latency_ms: done.iter().map(|d| d.1).collect(),
        lag_ms: done.iter().map(|d| d.2).collect(),
        wall_s,
    };
    let responses = done
        .iter()
        .map(|d| Response {
            probe: (first_probe + d.0) % probes.len(),
            chain: d.3,
        })
        .collect();
    (rung, responses)
}

/// One client searching the probes in turn, for at least one full cycle
/// and `seconds`. Returns per-search latencies (ms) and responses.
fn closed_loop(
    coordinator: &Coordinator,
    probes: &[Probe],
    seed: u64,
    seconds: f64,
    speed: &mut HostSpeed,
) -> (Vec<f64>, Vec<Response>) {
    let mut latencies = Vec::new();
    let mut responses = Vec::new();
    let start = Instant::now();
    while responses.len() < probes.len() || secs(start.elapsed()) < seconds {
        speed.sample_every(CALIBRATE_EVERY, responses.len());
        let probe = responses.len() % probes.len();
        let t = Instant::now();
        let result = coordinator.search(&probes[probe].template);
        latencies.push(secs(t.elapsed()) * 1e3);
        let chain = result.ok().map(|r| result_chain(seed, &r));
        responses.push(Response { probe, chain });
    }
    (latencies, responses)
}

/// The whole ladder, then the saturating burst (returned last). The host
/// speed is sampled before each rung.
fn ladder(
    args: &Args,
    coordinator: &Coordinator,
    probes: &[Probe],
    speed: &mut HostSpeed,
) -> (Vec<Rung>, Vec<Response>) {
    let mut rungs = Vec::new();
    let mut responses = Vec::new();
    let mut first_probe = 0;
    let burst = if args.tiny { TINY_BURST } else { BURST };
    let plan = LADDER
        .iter()
        .map(|&(rate, share)| {
            (
                rate,
                ((rate * share * args.seconds).round() as usize).max(1),
            )
        })
        .chain([(f64::INFINITY, burst)]);
    for (rate, count) in plan {
        speed.sample();
        let (r, mut got) = rung(coordinator, probes, args.seed, first_probe, rate, count);
        first_probe += count;
        rungs.push(r);
        responses.append(&mut got);
    }
    (rungs, responses)
}

/// The highest ladder rate sustained (0 when none is).
fn max_rate(rungs: &[Rung]) -> f64 {
    rungs[..LADDER.len()]
        .iter()
        .filter(|r| r.sustained())
        .map(|r| r.rate)
        .fold(0.0, f64::max)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (gallery_len, probe_count) = sizes(args, GALLERY, PROBES);
    let mut out = Outcome::default();
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups = Vec::new();
    let mut speed = HostSpeed::default();
    let mut gen_s = 0.0;
    let mut replica_chains: Option<Vec<u64>> = None;
    let mut built: Option<(Inputs, Topology, Vec<Response>)> = None;
    for _ in 0..repeats {
        if let Some((_, topology, _)) = built.take() {
            topology.shutdown();
        }
        speed.sample();
        let start = Instant::now();
        let inputs = Inputs::generate(args.seed, gallery_len, probe_count);
        gen_s = secs(start.elapsed());
        let topology = Topology::deploy(args.seed, &inputs.gallery, &args.study_exe)?;
        setups.push(secs(start.elapsed()));
        // Not timed: independently deployed replicas must agree.
        let mut responses = Vec::new();
        for (probe, p) in inputs.probes.iter().enumerate().take(REPLICA_PROBES) {
            let chain = topology
                .coordinator
                .search(&p.template)
                .ok()
                .map(|r| result_chain(args.seed, &r));
            responses.push(Response { probe, chain });
        }
        let chains: Vec<u64> = responses.iter().map(|r| r.chain.unwrap_or(0)).collect();
        let first = replica_chains.get_or_insert_with(|| chains.clone());
        out.check(*first == chains, || {
            "a set-up replica answered the replica probes differently".to_string()
        });
        built = Some((inputs, topology, responses));
    }
    let (inputs, topology, responses) = built.expect("at least one set-up");
    out.note(format!(
        "stamp: code {} config {} dataset {} (gallery {gallery_len} over {SHARDS} shards, \
         probes {probe_count}, shortlist {})",
        code_stamp(&args.study_exe),
        config_stamp(&topology.config, gallery_len, probe_count),
        inputs.stamp(),
        topology.config.shortlist
    ));
    out.set("host.calibration_us", speed.calibration_us());
    let result = if args.trace {
        traced(args, &inputs, &topology, gen_s, speed, out)
    } else {
        untraced(args, &inputs, &topology, responses, &setups, speed, out)
    };
    topology.shutdown();
    result
}

fn rung_note(r: &Rung) -> String {
    let ok = r.sent - r.failed;
    let rate = if r.rate.is_finite() {
        format!("{:>5.0}/s", r.rate)
    } else {
        "  burst".to_string()
    };
    format!(
        "rate {rate}: sent {:>4} ok {ok:>4} failed {} | p50 {:>8.2} ms p99 {:>8.2} ms | \
         lag mean {:>7.2} ms | {:>6.2} s{}",
        r.sent,
        r.failed,
        median(&r.latency_ms),
        quantile(&r.latency_ms, 0.99),
        mean(&r.lag_ms),
        r.wall_s,
        if r.rate.is_finite() && r.sustained() {
            " sustained"
        } else {
            ""
        }
    )
}

fn untraced(
    args: &Args,
    inputs: &Inputs,
    topology: &Topology,
    mut responses: Vec<Response>,
    setups: &[f64],
    mut speed: HostSpeed,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let probes = &inputs.probes;
    let (latencies, mut served) = closed_loop(
        &topology.coordinator,
        probes,
        args.seed,
        CLOSED_SHARE * args.seconds,
        &mut speed,
    );
    let (rungs, mut laddered) = ladder(args, &topology.coordinator, probes, &mut speed);
    served.append(&mut laddered);
    if args.corrupt {
        if let Some(chain) = served[0].chain.as_mut() {
            *chain ^= 1;
        }
    }
    responses.append(&mut served);
    let peak_rss = peak_rss_mb(None) + topology.children_rss_mb();

    // Reference: an in-process unsharded index over the same gallery.
    let mut reference = CandidateIndex::with_config(PairTableMatcher::default(), topology.config);
    reference.enroll_all(&inputs.gallery);
    let wanted: Vec<SearchResult> = probes
        .iter()
        .map(|p| reference.search(&p.template))
        .collect();
    let expected_fp = RunFingerprint::new(topology.config.fingerprint_base(args.seed));
    let mut mismatched = 0u64;
    for r in &responses {
        match r.chain {
            Some(chain) => {
                expected_fp.record_item(&wanted[r.probe]);
                mismatched += u64::from(chain != result_chain(args.seed, &wanted[r.probe]));
            }
            None => mismatched += 1,
        }
    }
    out.operations(responses.len() as u64, mismatched);
    if mismatched > 0 {
        eprintln!("perfbench: check failed: {mismatched} served searches failed or differ from in-process");
    }
    let served_fp = topology.coordinator.run_fingerprint();
    out.check(served_fp.value == expected_fp.value(), || {
        format!(
            "served run fingerprint {} differs from the in-process one {:016x}",
            served_fp.hex(),
            expected_fp.value()
        )
    });
    let verified = topology.coordinator.verify_fingerprints();
    out.check(verified.is_ok(), || {
        format!("shard fingerprint drift: {verified:?}")
    });

    for r in &rungs {
        out.note(rung_note(r));
    }
    let reference_rung = &rungs[REFERENCE_RUNG];
    let burst = rungs.last().expect("the burst rung");
    out.note(format!(
        "closed loop: {} searches, one client; ladder reference rate {}/s; run fingerprint {}",
        latencies.len(),
        reference_rung.rate,
        served_fp.hex()
    ));
    out.report(
        "max_rate_qps",
        max_rate(&rungs),
        "1/s",
        &format!("p99 limit {P99_LIMIT_MS} ms"),
    );
    out.end_to_end(
        &speed,
        setups,
        (burst.sent - burst.failed) as f64 / burst.wall_s,
        &latencies,
        peak_rss,
    );
    Ok(out)
}

/// Per-search layer timings of one traced served search.
#[derive(Default)]
struct Layers {
    total_ms: f64,
    rpc_stage1_ms: f64,
    fuse_ms: f64,
    rpc_rerank_ms: f64,
    transport_ms: f64,
    skew_ms: f64,
    local_stage1_ms: f64,
    local_rerank_ms: f64,
    hamming_word_ops: u64,
    bucket_hits: u64,
    rerank_comparisons: u64,
}

/// Runs `call` on every shard concurrently; returns results and times.
fn fan_out<T: Send>(
    shards: &[RemoteShard],
    call: impl Fn(&RemoteShard) -> T + Sync,
) -> Vec<(T, f64)> {
    std::thread::scope(|scope| {
        let calls: Vec<_> = shards
            .iter()
            .map(|shard| {
                let call = &call;
                scope.spawn(move || {
                    let t = Instant::now();
                    let value = call(shard);
                    (value, secs(t.elapsed()) * 1e3)
                })
            })
            .collect();
        calls
            .into_iter()
            .map(|c| c.join().expect("fan-out thread panicked"))
            .collect()
    })
}

/// One search through timing wrappers over `RemoteShard`, sequenced as
/// the coordinator does it (parallel stage 1, one global fusion, parallel
/// re-rank, merge), then the same shard calls in process for comparison.
fn traced_search(
    remote: &[RemoteShard],
    local: &[Index],
    config: &IndexConfig,
    probe: &Template,
) -> Result<(SearchResult, Layers), String> {
    let mut l = Layers::default();
    let total = local.iter().map(|i| i.len()).sum();
    let start = Instant::now();
    let stage1 = fan_out(remote, |s| s.stage_one(probe));
    let mut per_shard = Vec::new();
    for (r, _) in &stage1 {
        per_shard.push(r.clone().map_err(|e| format!("stage one: {e}"))?);
    }
    let t = Instant::now();
    let (votes, cyls) = stitch_stage_one(&per_shard, total);
    let selected = select_per_shard(&votes, &cyls, config.shortlist, remote.len());
    l.fuse_ms = secs(t.elapsed()) * 1e3;
    let stage2 = fan_out(remote, |s| {
        let k = s.shard_index();
        if selected[k].is_empty() {
            Ok(Vec::new())
        } else {
            s.stage_two(probe, &selected[k])
        }
    });
    let mut parts = Vec::new();
    for (k, (r, _)) in stage2.iter().enumerate() {
        let mut part = r.clone().map_err(|e| format!("re-rank: {e}"))?;
        globalize_and_sort(&mut part, k, remote.len());
        parts.push(part);
    }
    let result = SearchResult::from_parts(merge_sorted_parts(&parts), total);
    l.total_ms = secs(start.elapsed()) * 1e3;
    l.rpc_stage1_ms = stage1.iter().map(|s| s.1).fold(0.0, f64::max);
    l.rpc_rerank_ms = stage2.iter().map(|s| s.1).fold(0.0, f64::max);
    l.rerank_comparisons = selected.iter().map(|s| s.len() as u64).sum();

    // The same slices in process: what the wire and the children add.
    let mut rpc_totals = Vec::new();
    for (k, index) in local.iter().enumerate() {
        let t = Instant::now();
        let s1 = index
            .stage_one(probe)
            .expect("in-process shards cannot fail");
        let local1 = secs(t.elapsed()) * 1e3;
        let t = Instant::now();
        if !selected[k].is_empty() {
            index
                .stage_two(probe, &selected[k])
                .expect("in-process shards cannot fail");
        }
        let local2 = secs(t.elapsed()) * 1e3;
        let rpc = stage1[k].1 + stage2[k].1;
        l.transport_ms += (rpc - local1 - local2) / local.len() as f64;
        l.local_stage1_ms += local1 / local.len() as f64;
        l.local_rerank_ms += local2 / local.len() as f64;
        l.hamming_word_ops += s1.hamming_word_ops;
        l.bucket_hits += s1.bucket_hits;
        rpc_totals.push(rpc);
    }
    l.skew_ms = rpc_totals.iter().fold(0.0, |a: f64, b| a.max(*b))
        - rpc_totals.iter().fold(f64::INFINITY, |a: f64, b| a.min(*b));
    Ok((result, l))
}

fn traced(
    args: &Args,
    inputs: &Inputs,
    topology: &Topology,
    gen_s: f64,
    mut speed: HostSpeed,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let probes = &inputs.probes;
    // The ladder again, on a coordinator with its wire counters on.
    let telemetry = Telemetry::enabled();
    let counted = topology.connect(args.seed)?.with_telemetry(&telemetry);
    let (rungs, responses) = ladder(args, &counted, probes, &mut speed);
    let failed = responses.iter().filter(|r| r.chain.is_none()).count() as u64;
    out.operations(responses.len() as u64, failed);
    for r in &rungs {
        out.note(rung_note(r));
    }

    let mut remote = Vec::new();
    for (k, child) in topology.children.iter().enumerate() {
        let shard = RemoteShard::new(child.addr, k, RPC_DEADLINE, RetryPolicy::default())
            .with_fingerprint_base(topology.config.fingerprint_base(0));
        // The health check also learns the shard's gallery size.
        shard.health().map_err(|e| format!("health: {e}"))?;
        remote.push(shard);
    }
    // Each probe is searched untraced (one client, the end-to-end
    // reference) and traced back to back, in alternating order, so drift
    // in the host's speed and cache warm-up fall on both sides alike.
    let mut untraced_ms = Vec::new();
    let mut chains = Vec::new();
    let mut layers = Vec::new();
    let mut hits = 0usize;
    for (i, probe) in probes.iter().enumerate() {
        let untraced = || {
            let t = Instant::now();
            let result = topology.coordinator.search(&probe.template);
            (result, secs(t.elapsed()) * 1e3)
        };
        let traced = || traced_search(&remote, &topology.local, &topology.config, &probe.template);
        let ((want, ms), got) = if i % 2 == 0 {
            (untraced(), traced())
        } else {
            let got = traced();
            (untraced(), got)
        };
        let want = result_chain(
            args.seed,
            &want.map_err(|e| format!("untraced search: {e}"))?,
        );
        let (result, l) = got?;
        let flip = u64::from(args.corrupt && i == 0);
        out.check(result_chain(args.seed, &result) ^ flip == want, || {
            format!("probe {i}: traced search differs from the untraced one")
        });
        hits += usize::from(result.best().map(|c| c.id) == Some(probe.mate));
        untraced_ms.push(ms);
        chains.push(want);
        layers.push((probe.device, l));
    }
    for r in &responses {
        out.check(r.chain == Some(chains[r.probe]), || {
            format!(
                "probe {}: ladder response differs from the untraced search",
                r.probe
            )
        });
    }

    let prepare_us = inputs.prepare_us();
    let avg = |f: &dyn Fn(&Layers) -> f64, card: Option<bool>| per_probe_mean(&layers, f, card);
    let snapshot = telemetry.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let searches = responses.len().max(1) as f64;
    let rpc_stage1 = avg(&|l| l.rpc_stage1_ms, None);
    let fuse = avg(&|l| l.fuse_ms, None);
    let rpc_rerank = avg(&|l| l.rpc_rerank_ms, None);
    let end_to_end = mean(&untraced_ms);
    out.set("fp-sensor.dataset_s", gen_s);
    out.set("fp-match.prepare_us", prepare_us);
    out.set("fp-index.enroll_s", topology.enroll_s);
    out.set("fp-index.stage1_ms", avg(&|l| l.local_stage1_ms, None));
    out.set("fp-index.fuse_ms", fuse);
    out.set(
        "fp-index.rerank_ms_live",
        avg(&|l| l.local_rerank_ms, Some(false)),
    );
    out.set(
        "fp-index.rerank_ms_card",
        avg(&|l| l.local_rerank_ms, Some(true)),
    );
    out.set(
        "fp-index.hamming_word_ops",
        avg(&|l| l.hamming_word_ops as f64, None),
    );
    out.set("fp-index.bucket_hits", avg(&|l| l.bucket_hits as f64, None));
    out.set(
        "fp-index.rerank_comparisons",
        avg(&|l| l.rerank_comparisons as f64, None),
    );
    out.set("fp-index.rank1_recall", hits as f64 / probes.len() as f64);
    out.set("fp-store.save_s", topology.save_s);
    out.set("fp-store.bytes", topology.bytes as f64);
    out.set("fp-serve.shard_start_s", topology.start_s);
    out.set("fp-serve.rpc_stage1_ms", rpc_stage1);
    out.set("fp-serve.rpc_rerank_ms", rpc_rerank);
    out.set("fp-serve.transport_ms", avg(&|l| l.transport_ms, None));
    out.set("fp-serve.shard_skew_ms", avg(&|l| l.skew_ms, None));
    out.set(
        "fp-serve.bytes_per_search",
        (counter("serve.bytes_tx") + counter("serve.bytes_rx")) / searches,
    );
    out.set("fp-serve.retries", counter("serve.retries"));
    out.set("fp-serve.shed", counter("serve.shed"));
    out.set("fp-serve.timeouts", counter("serve.timeouts"));
    out.set("fp-serve.gen_lag_ms", mean(&rungs[REFERENCE_RUNG].lag_ms));
    out.set("fp-serve.max_rate_qps", max_rate(&rungs));
    out.set(
        "trace.residual_frac",
        1.0 - (rpc_stage1 + fuse + rpc_rerank) / end_to_end,
    );
    out.set(
        "trace.overhead_frac",
        avg(&|l| l.total_ms, None) / end_to_end - 1.0,
    );
    out.note(format!(
        "search {end_to_end:.3} ms untraced, one client; fp-index.* are the same shard slices \
         searched in process"
    ));
    Ok(out)
}
