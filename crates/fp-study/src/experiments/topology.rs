//! **The study harness** shared by the 1:N gates (`ext-scaling`, `load`,
//! `check-dist-trace`, `check-kernel`, `check-store`): one protocol, written
//! once, applied to every transport.
//!
//! 1. A [`Cohort`] — a synthetic template pool plus a stride-spaced probe
//!    set that alternates the [`SAME_DEVICE`] and [`CROSS_DEVICE`]
//!    capture profiles.
//! 2. A [`Baseline`] — the unsharded in-process index's per-probe
//!    [`SearchResult`]s plus its RUNFP hex: the ground truth every other
//!    transport must equal.
//! 3. A [`Topology`] — `serve-shard` children of the running binary behind
//!    one [`Coordinator`], spawned, connected and reaped in one place.
//! 4. [`replay`] — the probe loop through any [`Searcher`], comparing each
//!    full candidate list (ids and score bits, in order) and the RUNFP
//!    chain against the baseline, and cross-checking every remote shard's
//!    served chain.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fp_core::dist::normal;
use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::{CandidateIndex, IndexConfig, SearchResult, ShardedIndex};
use fp_match::PairTableMatcher;
use fp_serve::proc::{spawn_shard, ShardChild};
use fp_serve::{Coordinator, RetryPolicy, SlowLog};
use fp_telemetry::Telemetry;
use rand::Rng;

use crate::parallel::parallel_map_metered;

/// Per-request deadline of every harness connection to a shard child.
pub(crate) const DEADLINE: Duration = Duration::from_secs(60);

/// A deterministic synthetic template with `n` well-spread minutiae.
///
/// Gallery templates come from this cheap direct minutiae sampler rather
/// than the full synthesis/render/capture pipeline: the index only sees
/// minutiae, and a 10x gallery through the image pipeline would swamp the
/// gates with rendering cost that has nothing to do with search.
pub(crate) fn synthetic_template(seeds: &SeedTree, id: u64, n: usize) -> Template {
    let mut rng = seeds.child(&[0x5C, id]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    let mut attempts = 0;
    while minutiae.len() < n && attempts < 10_000 {
        attempts += 1;
        let pos = Point::new(
            rng.gen::<f64>() * 16.0 - 8.0,
            rng.gen::<f64>() * 20.0 - 10.0,
        );
        if minutiae.iter().any(|m| m.pos.distance(&pos) < 1.4) {
            continue;
        }
        let kind = if rng.gen::<bool>() {
            MinutiaKind::RidgeEnding
        } else {
            MinutiaKind::Bifurcation
        };
        minutiae.push(Minutia::new(
            pos,
            Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
            kind,
            1.0,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .expect("synthetic template is valid")
}

/// Perturbation profile of a probe capture.
#[derive(Clone, Copy)]
pub(crate) struct Profile {
    drop: f64,
    jitter_mm: f64,
    jitter_rad: f64,
    motion_mm: f64,
    motion_rad: f64,
}

/// Roughly a second capture on the same device.
pub(crate) const SAME_DEVICE: Profile = Profile {
    drop: 0.06,
    jitter_mm: 0.10,
    jitter_rad: 0.04,
    motion_mm: 0.8,
    motion_rad: 0.10,
};

/// Roughly a capture on a different device (heavier loss and distortion).
pub(crate) const CROSS_DEVICE: Profile = Profile {
    drop: 0.14,
    jitter_mm: 0.20,
    jitter_rad: 0.09,
    motion_mm: 1.4,
    motion_rad: 0.16,
};

/// A jittered re-capture of `template` under `profile`.
pub(crate) fn recapture(
    template: &Template,
    seeds: &SeedTree,
    id: u64,
    profile: Profile,
) -> Template {
    let mut rng = seeds.child(&[0x5D, id]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    for m in template.minutiae() {
        if rng.gen::<f64>() < profile.drop {
            continue;
        }
        minutiae.push(Minutia::new(
            Point::new(
                m.pos.x + normal(&mut rng, 0.0, profile.jitter_mm),
                m.pos.y + normal(&mut rng, 0.0, profile.jitter_mm),
            ),
            m.direction
                .rotated(normal(&mut rng, 0.0, profile.jitter_rad)),
            m.kind,
            m.reliability,
        ));
    }
    let motion = RigidMotion::new(
        Direction::from_radians(normal(&mut rng, 0.0, profile.motion_rad)),
        Vector::new(
            normal(&mut rng, 0.0, profile.motion_mm),
            normal(&mut rng, 0.0, profile.motion_mm),
        ),
    );
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .expect("recaptured template is valid")
        .transformed(&motion)
}

/// One probe: a re-capture of gallery entry `subject`.
pub(crate) struct Probe {
    pub subject: usize,
    pub template: Template,
}

/// The synthetic cohort of one gate: the template pool and the seed
/// branch its probes are drawn from.
pub(crate) struct Cohort {
    pub seeds: SeedTree,
    pub pool: Vec<Template>,
}

impl Cohort {
    /// `size` synthetic templates under seed branch `branch` of `seed`.
    pub fn new(seed: u64, branch: u64, size: usize) -> Cohort {
        Cohort::metered(seed, branch, size, &Telemetry::disabled(), "")
    }

    /// [`Cohort::new`] with the pool build recorded as telemetry `stage`.
    pub fn metered(
        seed: u64,
        branch: u64,
        size: usize,
        telemetry: &Telemetry,
        stage: &str,
    ) -> Cohort {
        let seeds = SeedTree::new(seed).child(&[branch]);
        let pool = parallel_map_metered(size, telemetry, stage, |i| {
            synthetic_template(&seeds, i as u64, 22 + i % 14)
        });
        Cohort { seeds, pool }
    }

    /// Up to `max` probes spread evenly over the first `gallery` pool
    /// entries, alternating the two capture profiles. The probe set is a
    /// function of `gallery`, so every rung over the same gallery searches
    /// the very same probes.
    pub fn probes(&self, gallery: usize, max: usize) -> Vec<Probe> {
        let n = gallery.min(max);
        let stride = gallery / n;
        (0..n)
            .map(|p| {
                let subject = p * stride;
                let profile = if p.is_multiple_of(2) {
                    SAME_DEVICE
                } else {
                    CROSS_DEVICE
                };
                let id = (gallery + subject) as u64;
                Probe {
                    subject,
                    template: recapture(&self.pool[subject], &self.seeds, id, profile),
                }
            })
            .collect()
    }
}

/// An unsharded in-process index over `templates`, its RUNFP chain seeded
/// with `seed`.
pub(crate) fn enroll(
    templates: &[Template],
    config: IndexConfig,
    seed: u64,
) -> CandidateIndex<PairTableMatcher> {
    let mut index =
        CandidateIndex::with_config(PairTableMatcher::default(), config).with_run_seed(seed);
    index.enroll_all(templates);
    index
}

/// The ground truth of a probe set: per-probe results plus the RUNFP hex
/// of exactly that probe loop.
pub(crate) struct Baseline {
    pub results: Vec<SearchResult>,
    pub runfp: String,
}

impl Baseline {
    /// Searches `probes` in order on `index` and snapshots its chain.
    pub fn search(index: &CandidateIndex<PairTableMatcher>, probes: &[Probe]) -> Baseline {
        let results = probes.iter().map(|p| index.search(&p.template)).collect();
        Baseline {
            results,
            runfp: index.run_fingerprint().hex(),
        }
    }

    /// Per probe: does `results[p]` equal the baseline's full candidate
    /// list (ids AND score bits, in order) over the same gallery size?
    fn agreement(&self, results: &[SearchResult]) -> Vec<bool> {
        results
            .iter()
            .zip(&self.results)
            .map(|(got, want)| {
                got.candidates() == want.candidates() && got.gallery_len() == want.gallery_len()
            })
            .collect()
    }
}

/// Anything the harness can replay a probe set through.
pub(crate) trait Searcher: Sync {
    fn search_probe(&self, probe: &Template) -> Result<SearchResult, String>;
    fn runfp(&self) -> String;
    /// Cross-checks state the searcher does not own (remote shards'
    /// served chains); in-process searchers have none.
    fn verify(&self) -> Result<(), String> {
        Ok(())
    }
}

impl Searcher for CandidateIndex<PairTableMatcher> {
    fn search_probe(&self, probe: &Template) -> Result<SearchResult, String> {
        Ok(self.search(probe))
    }
    fn runfp(&self) -> String {
        self.run_fingerprint().hex()
    }
}

impl Searcher for ShardedIndex<PairTableMatcher> {
    fn search_probe(&self, probe: &Template) -> Result<SearchResult, String> {
        Ok(self.search(probe))
    }
    fn runfp(&self) -> String {
        self.run_fingerprint().hex()
    }
}

impl Searcher for Coordinator {
    fn search_probe(&self, probe: &Template) -> Result<SearchResult, String> {
        self.search(probe).map_err(|e| e.to_string())
    }
    fn runfp(&self) -> String {
        self.run_fingerprint().hex()
    }
    fn verify(&self) -> Result<(), String> {
        self.verify_fingerprints()
            .map(drop)
            .map_err(|e| format!("fingerprint verification: {e}"))
    }
}

/// What one replay of a probe set measured.
pub(crate) struct Replay {
    pub results: Vec<SearchResult>,
    /// Per probe: full candidate-list parity with the baseline.
    pub agrees: Vec<bool>,
    /// The searcher's RUNFP hex over exactly the replayed loop.
    pub runfp: String,
    baseline_runfp: String,
    /// Wall time of the probe loop alone.
    pub seconds: f64,
}

impl Replay {
    pub fn agreed(&self) -> usize {
        self.agrees.iter().filter(|&&ok| ok).count()
    }

    pub fn first_mismatch(&self) -> Option<usize> {
        self.agrees.iter().position(|&ok| !ok)
    }

    /// `Err` naming the first probe whose candidate list diverged, or the
    /// chain divergence, on the transport called `label`.
    pub fn require_parity(&self, label: &str) -> Result<(), String> {
        if let Some(p) = self.first_mismatch() {
            return Err(format!(
                "probe {p}: {label} candidate list diverged from the baseline"
            ));
        }
        if self.runfp != self.baseline_runfp {
            return Err(format!(
                "RUNFP diverged: baseline {}, {label} {}",
                self.baseline_runfp, self.runfp
            ));
        }
        Ok(())
    }
}

/// Replays `probes` through `searcher` on `clients` threads (probe `i` on
/// thread `i % clients`; 1 runs inline, so spans nest under the caller's),
/// compares every result with `baseline`, snapshots the chain, then runs
/// the searcher's [`Searcher::verify`].
pub(crate) fn replay(
    searcher: &impl Searcher,
    probes: &[Probe],
    baseline: &Baseline,
    clients: usize,
) -> Result<Replay, String> {
    let start = Instant::now();
    let results: Vec<SearchResult> = if clients <= 1 {
        probes
            .iter()
            .map(|p| searcher.search_probe(&p.template))
            .collect::<Result<_, _>>()?
    } else {
        let slots = Mutex::new(vec![None::<SearchResult>; probes.len()]);
        std::thread::scope(|scope| -> Result<(), String> {
            let handles: Vec<_> = (0..clients)
                .map(|t| {
                    let slots = &slots;
                    scope.spawn(move || -> Result<(), String> {
                        for i in (t..probes.len()).step_by(clients) {
                            let result = searcher.search_probe(&probes[i].template)?;
                            slots.lock().expect("results lock")[i] = Some(result);
                        }
                        Ok(())
                    })
                })
                .collect();
            for handle in handles {
                handle.join().expect("client thread panicked")?;
            }
            Ok(())
        })?;
        slots
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|r| r.expect("every probe searched"))
            .collect()
    };
    let seconds = start.elapsed().as_secs_f64();
    let runfp = searcher.runfp();
    searcher.verify()?;
    Ok(Replay {
        agrees: baseline.agreement(&results),
        results,
        runfp,
        baseline_runfp: baseline.runfp.clone(),
        seconds,
    })
}

/// `serve-shard` children of the running binary behind one coordinator.
/// Children are killed on every exit path ([`ShardChild`] kills on drop).
pub(crate) struct Topology {
    children: Vec<ShardChild>,
    pub coordinator: Coordinator,
}

impl Topology {
    /// Spawns one child per entry of `child_args` (extra arguments after
    /// `serve-shard`) and connects a coordinator with the harness
    /// deadline, the default retry policy and RUNFP seed `seed`.
    pub fn spawn(
        child_args: &[Vec<String>],
        index_config: IndexConfig,
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<Topology, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut children = Vec::with_capacity(child_args.len());
        for extra in child_args {
            let mut args = vec!["serve-shard"];
            args.extend(extra.iter().map(String::as_str));
            children.push(
                spawn_shard(&exe, &args).map_err(|e| format!("spawn {exe:?} {args:?}: {e}"))?,
            );
        }
        let addrs: Vec<_> = children.iter().map(|c| c.addr).collect();
        let coordinator =
            Coordinator::connect(&addrs, index_config, DEADLINE, RetryPolicy::default())
                .map_err(|e| format!("connect: {e}"))?
                .with_telemetry(telemetry)
                .with_run_seed(seed);
        Ok(Topology {
            children,
            coordinator,
        })
    }

    /// `shards` children with no extra arguments.
    pub fn plain(
        shards: usize,
        index_config: IndexConfig,
        seed: u64,
        telemetry: &Telemetry,
    ) -> Result<Topology, String> {
        Topology::spawn(&vec![Vec::new(); shards], index_config, seed, telemetry)
    }

    /// Attaches a tail-latency exemplar log to the coordinator.
    pub fn with_slowlog(self, slowlog: Option<Arc<SlowLog>>) -> Topology {
        match slowlog {
            Some(slowlog) => Topology {
                coordinator: self.coordinator.with_slowlog(slowlog),
                ..self
            },
            None => self,
        }
    }

    /// The children's loopback addresses, in shard order.
    pub fn addrs(&self) -> Vec<std::net::SocketAddr> {
        self.children.iter().map(|c| c.addr).collect()
    }

    /// Clean wire-level shutdown, then reap; stragglers are killed.
    pub fn shutdown(mut self) {
        let _ = self.coordinator.shutdown_all();
        for child in &mut self.children {
            child.wait_exit(Duration::from_secs(5));
        }
    }
}
