//! Sharded gallery: one logical 1:N index split across S thread-parallel
//! shards, exactly equivalent to the unsharded [`CandidateIndex`].
//!
//! # Id mapping
//!
//! Templates are distributed round-robin by enrollment order: the g-th
//! enrolled template lands on shard `g % S` as that shard's local id
//! `g / S`, so `global_id = local_id * S + shard` recovers exactly the
//! dense enrollment-order id the unsharded index would have assigned.
//!
//! # The search sequence
//!
//! Every 1:N search in the workspace, sharded or not, in process or
//! across processes, runs one function: [`search_shards`]. Its docs give
//! the sequence and the argument for why it returns the unsharded bytes
//! for any shard count. The four pure helpers it calls
//! ([`stitch_stage_one`], [`select_per_shard`], [`globalize_and_sort`],
//! [`merge_sorted_parts`]) stay public for tools that time each step.

use std::convert::Infallible;
use std::time::{Duration, Instant};

use fp_core::template::Template;
use fp_telemetry::{FingerprintSnapshot, RunFingerprint, Telemetry};

use crate::config::IndexConfig;
use crate::index::{fuse_select, Candidate, CandidateIndex, SearchResult, StageOneScores};
use crate::metrics::IndexMetrics;

/// A gallery sharded across S thread-parallel [`CandidateIndex`] shards.
///
/// Searches return [`SearchResult`]s byte-identical to an unsharded index
/// enrolled in the same order with the same budget; shards buy wall-clock
/// parallelism (stage 1 and stage 2 both fan out across shard threads) and
/// are the in-process rehearsal for the ROADMAP's cross-process sharding.
pub struct ShardedIndex<M: fp_match::PreparableMatcher> {
    shards: Vec<CandidateIndex<M>>,
    /// Roll-up instruments under the canonical `index` prefix, comparable
    /// 1:1 with an unsharded index serving the same gallery.
    rollup: IndexMetrics,
    config: IndexConfig,
    enrolled: usize,
    /// Canonical run fingerprint over merged (global-fusion-order) results
    /// — byte-for-byte comparable with an unsharded index's, because the
    /// merged candidate lists are byte-identical.
    runfp: RunFingerprint,
}

impl<M: fp_match::PreparableMatcher + Clone> ShardedIndex<M> {
    /// Creates an empty index of `shard_count` shards around `matcher`
    /// with the default config.
    pub fn new(matcher: M, shard_count: usize) -> ShardedIndex<M> {
        ShardedIndex::with_config(matcher, IndexConfig::default(), shard_count)
    }

    /// Creates an empty sharded index with an explicit config.
    pub fn with_config(matcher: M, config: IndexConfig, shard_count: usize) -> ShardedIndex<M> {
        ShardedIndex::from_shards(
            (0..shard_count)
                .map(|_| CandidateIndex::with_config(matcher.clone(), config))
                .collect(),
        )
    }
}

impl<M: fp_match::PreparableMatcher> ShardedIndex<M> {
    /// Assembles a sharded index from pre-built shards under the
    /// round-robin id mapping (shard `k` holds global ids `≡ k (mod S)`,
    /// global id `g` at local id `g / S`). This is `fp-store`'s sharded
    /// open path: a persisted gallery's entries are dealt into per-shard
    /// [`CandidateIndex::from_store_parts`] indexes and installed here,
    /// producing an index byte-identical to one grown by
    /// [`enroll`](Self::enroll) calls in global-id order.
    ///
    /// # Panics
    ///
    /// If `shards` is empty, the shards disagree on config, or the shard
    /// lengths violate the round-robin deal (shard `k` of `S` over `n`
    /// total entries must hold exactly `(n + S - 1 - k) / S`).
    pub fn from_shards(shards: Vec<CandidateIndex<M>>) -> ShardedIndex<M> {
        assert!(!shards.is_empty(), "need at least one shard");
        let config = *shards[0].config();
        let s = shards.len();
        let total: usize = shards.iter().map(|shard| shard.len()).sum();
        for (k, shard) in shards.iter().enumerate() {
            assert_eq!(shard.config(), &config, "shard {k} config differs");
            assert_eq!(
                shard.len(),
                (total + s - 1 - k) / s,
                "shard {k} length violates the round-robin deal"
            );
        }
        ShardedIndex {
            shards,
            rollup: IndexMetrics::default(),
            config,
            enrolled: total,
            runfp: RunFingerprint::new(config.fingerprint_base(0)),
        }
    }

    /// Registers the roll-up instruments under the canonical `index` prefix
    /// (so dashboards compare sharded and unsharded runs 1:1) plus one
    /// per-shard bundle under `index.shard<k>` for work attribution.
    pub fn with_telemetry(mut self, telemetry: &Telemetry) -> Self {
        self.rollup = IndexMetrics::new(telemetry);
        self.shards = self
            .shards
            .into_iter()
            .enumerate()
            .map(|(k, shard)| {
                shard.with_metrics(IndexMetrics::with_prefix(
                    telemetry,
                    &format!("index.shard{k}"),
                ))
            })
            .collect();
        self
    }

    /// Re-seeds the canonical run fingerprint (default seed 0). Call
    /// before the first search. Equal seeds, configs, galleries and probe
    /// sequences give a value equal to an unsharded
    /// [`CandidateIndex::run_fingerprint`] — for any shard count.
    pub fn with_run_seed(mut self, seed: u64) -> Self {
        self.runfp = RunFingerprint::new(self.config.fingerprint_base(seed));
        self
    }

    /// Snapshot of the canonical run fingerprint (see
    /// [`CandidateIndex::run_fingerprint`]).
    pub fn run_fingerprint(&self) -> FingerprintSnapshot {
        self.runfp.snapshot()
    }

    /// Per-shard stage-2 part chains, in shard order — what a remote
    /// coordinator would scrape from each shard process.
    pub fn shard_fingerprints(&self) -> Vec<FingerprintSnapshot> {
        self.shards
            .iter()
            .map(|shard| shard.part_fingerprint())
            .collect()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total enrolled gallery templates across all shards.
    pub fn len(&self) -> usize {
        self.enrolled
    }

    /// Whether the gallery is empty.
    pub fn is_empty(&self) -> bool {
        self.enrolled == 0
    }

    /// The active configuration (shared by every shard).
    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    /// Enrolls one template, returning its dense global id (enrollment
    /// order, starting at 0 — identical to the unsharded assignment).
    pub fn enroll(&mut self, template: &Template) -> u32 {
        let s = self.shards.len();
        let global = self.enrolled as u32;
        let shard = self.enrolled % s;
        let local = self.shards[shard].enroll(template);
        debug_assert_eq!(global, local * s as u32 + shard as u32);
        self.rollup.enrolled.incr();
        self.enrolled += 1;
        global
    }

    /// Enrolls a batch: templates are dealt round-robin to the shards and
    /// each shard prepares its share on its own thread (dividing the
    /// machine's cores across shards). The resulting index is identical to
    /// sequential [`enroll`](Self::enroll) calls in slice order. Returns
    /// the global id of the first enrolled template.
    pub fn enroll_all(&mut self, templates: &[Template]) -> u32
    where
        M: Sync,
        M::Prepared: Send,
    {
        let telemetry = self.rollup.telemetry.clone();
        let _span = telemetry.trace_span(
            "index.enroll_all",
            &[
                ("batch", templates.len().to_string()),
                ("shards", self.shards.len().to_string()),
            ],
        );
        let start = Instant::now();
        let s = self.shards.len();
        let first = self.enrolled as u32;
        let mut per_shard: Vec<Vec<&Template>> = vec![Vec::new(); s];
        for (offset, template) in templates.iter().enumerate() {
            per_shard[(self.enrolled + offset) % s].push(template);
        }
        let threads_per_shard = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
            .div_ceil(s)
            .max(1);
        let ctx = telemetry.trace_ctx();
        std::thread::scope(|scope| {
            for (k, (shard, batch)) in self.shards.iter_mut().zip(&per_shard).enumerate() {
                let (ctx, telemetry) = (&ctx, &telemetry);
                scope.spawn(move || {
                    let _adopt = telemetry.in_ctx(ctx);
                    let _lane = telemetry.trace_span(
                        "index.shard.enroll",
                        &[("shard", k.to_string()), ("batch", batch.len().to_string())],
                    );
                    shard.enroll_all_bounded(batch, threads_per_shard);
                });
            }
        });
        self.rollup.enrolled.add(templates.len() as u64);
        self.rollup.build_batch_time.record(start.elapsed());
        self.enrolled += templates.len();
        first
    }

    /// Searches every shard with the configured shortlist budget.
    pub fn search(&self, probe: &Template) -> SearchResult
    where
        M: Sync,
    {
        self.search_with_budget(probe, self.config.shortlist)
    }

    /// Searches with an explicit **total** shortlist budget (the budget is
    /// global, applied at the single global fusion — not per shard).
    /// Returns a result byte-identical to
    /// [`CandidateIndex::search_with_budget`] on the same gallery: both run
    /// [`search_shards`], here with one scoped thread per shard for each
    /// stage and the probe's features computed once for all shards.
    pub fn search_with_budget(&self, probe: &Template, shortlist: usize) -> SearchResult
    where
        M: Sync,
    {
        let start = Instant::now();
        let s = self.shards.len();
        let _span = self.rollup.telemetry.trace_span(
            "index.search",
            &[
                ("gallery", self.enrolled.to_string()),
                ("shards", s.to_string()),
            ],
        );

        // Probe-side features are pure functions of (probe, config); every
        // shard shares one read-only copy computed on shard 0's extractors.
        let probe_features = self.shards[0].probe_features(probe);
        let every_shard: Vec<(usize, ())> = (0..s).map(|k| (k, ())).collect();
        let (stage1, stage1_times): (Vec<StageOneScores>, Vec<Duration>) = self
            .fan_out("index.shard.search", &every_shard, |shard, ()| {
                let t0 = Instant::now();
                (shard.stage1(&probe_features), t0.elapsed())
            })
            .into_iter()
            .unzip();

        // (exact comparisons, re-rank wall time) per shard; shards with an
        // empty selection keep (0, 0).
        let mut reranked = vec![(0usize, Duration::ZERO); s];
        let Ok(result) = search_shards(&stage1, shortlist, |jobs| {
            let probe_prepared = self.shards[0].prepare_probe(probe);
            let parts = self.fan_out("index.shard.rerank", jobs, |shard, selected| {
                let t0 = Instant::now();
                let part = shard.rerank(selected, &probe_prepared);
                // The part chain folds local ids in selection order — the
                // sequence a remote shard folds serving the same request.
                shard.fold_part(&part);
                (part, t0.elapsed())
            });
            for (&(k, _), (part, time)) in jobs.iter().zip(&parts) {
                reranked[k] = (part.len(), *time);
            }
            Ok::<_, Infallible>(parts.into_iter().map(|(part, _)| part).collect())
        });

        // Every shard served one (partial) search; the roll-up sums them.
        for (k, shard) in self.shards.iter().enumerate() {
            let (part_len, time) = (reranked[k].0, stage1_times[k] + reranked[k].1);
            shard
                .metrics()
                .record_search([&stage1[k]], part_len, shard.len(), time);
        }
        let (reranked, n) = (result.candidates().len(), result.gallery_len());
        self.rollup
            .record_search(&stage1, reranked, n, start.elapsed());
        self.runfp.record_item(&result);
        result
    }

    /// Runs `f` once per `(shard, job)` pair, one thread each (inline when
    /// there is only one), collecting results in job order. Worker threads
    /// adopt the calling span so the `name` lanes nest under it.
    fn fan_out<J: Sync, T: Send>(
        &self,
        name: &str,
        jobs: &[(usize, J)],
        f: impl Fn(&CandidateIndex<M>, &J) -> T + Sync,
    ) -> Vec<T>
    where
        M: Sync,
    {
        let telemetry = &self.rollup.telemetry;
        let lane = |(k, job): &(usize, J)| {
            let _lane = telemetry.trace_span(name, &[("shard", k.to_string())]);
            f(&self.shards[*k], job)
        };
        if let [job] = jobs {
            return vec![lane(job)];
        }
        let ctx = telemetry.trace_ctx();
        std::thread::scope(|scope| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|job| {
                    let (ctx, lane) = (&ctx, &lane);
                    scope.spawn(move || {
                        let _adopt = telemetry.in_ctx(ctx);
                        lane(job)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        })
    }
}

/// The 1:N search sequence, written once. Every searcher in the workspace
/// — [`CandidateIndex`] (one shard), [`ShardedIndex`] (S in-process
/// shards), [`search_backends`](crate::search_backends) (any
/// [`ShardBackend`](crate::ShardBackend)s) and `fp-serve`'s `Coordinator`
/// (S remote shards) — computes stage 1 with its own fan-out and hands the
/// per-shard scores (`stage1[k]` for shard `k`) to this function:
///
/// 1. **Stitch** the per-shard arrays into global ones through the
///    round-robin id mapping ([`stitch_stage_one`]). One shard needs no
///    stitching: its arrays are borrowed as they are.
/// 2. **Select** the shortlist with **one** global best-rank fusion over
///    `shortlist` entries and deal it back to the owning shards as local
///    ids ([`select_per_shard`]).
/// 3. **Re-rank**: `rerank` receives one `(shard, local ids)` job per
///    shard whose selection is non-empty — an empty selection costs no
///    call and no round trip — and returns each job's exact part (local
///    ids, selection order) in job order. This is the caller's second
///    fan-out: inline, scoped threads, or pipelined RPCs.
/// 4. **Merge**: each part is mapped to global ids and sorted
///    ([`globalize_and_sort`]), and the sorted parts are merged
///    ([`merge_sorted_parts`]) into the [`SearchResult`] over the whole
///    gallery.
///
/// # Why the result is the unsharded one, byte for byte
///
/// Running the whole two-stage search per shard and merging shortlists
/// would **not** be equivalent: the channels are fused by *rank*, and an
/// entry whose global channel ranks are (5, 100) beats one at (6, 7)
/// globally but can lose to it inside a small shard. Rank fusion is not
/// monotone under entry removal. The sequence therefore splits along the
/// one seam that *is* shard-invariant: **per-entry channel scores**. An
/// entry's vote score and cylinder-code score are pure functions of
/// (probe, entry), bit-identical whether the entry shares a gallery with
/// 10 or 10 million others, so the stitched arrays equal the unsharded
/// ones and the one fusion selects the unsharded shortlist. Exact stage-2
/// scores are per-entry too. Global ids are unique, so `(score desc, id
/// asc)` is a strict total order, and merging the sorted parts equals
/// sorting the concatenation: the unsharded final sort.
pub fn search_shards<E>(
    stage1: &[StageOneScores],
    shortlist: usize,
    rerank: impl FnOnce(&[(usize, &[u32])]) -> Result<Vec<Vec<Candidate>>, E>,
) -> Result<SearchResult, E> {
    let s = stage1.len();
    let total = stage1.iter().map(|scores| scores.vote_scores.len()).sum();
    let stitched;
    let (vote_scores, cyl_scores) = match stage1 {
        [only] => (&only.vote_scores[..], &only.cyl_scores[..]),
        _ => {
            stitched = stitch_stage_one(stage1, total);
            (&stitched.0[..], &stitched.1[..])
        }
    };
    let selected = select_per_shard(vote_scores, cyl_scores, shortlist, s);
    let jobs: Vec<(usize, &[u32])> = selected
        .iter()
        .enumerate()
        .filter(|(_, ids)| !ids.is_empty())
        .map(|(k, ids)| (k, &ids[..]))
        .collect();
    let reranked = rerank(&jobs)?;
    assert_eq!(reranked.len(), jobs.len(), "one re-ranked part per job");
    let mut parts = vec![Vec::new(); s];
    for (&(k, _), mut part) in jobs.iter().zip(reranked) {
        globalize_and_sort(&mut part, k, s);
        parts[k] = part;
    }
    Ok(SearchResult::from_parts(merge_sorted_parts(&parts), total))
}

// The steps of `search_shards`: pure functions between stage 1 and stage 2.

/// Stitches per-shard stage-1 score arrays into global score arrays via the
/// round-robin id mapping `global = local * shards + shard`. `total` is the
/// full gallery size (must equal the sum of the per-shard lengths).
pub fn stitch_stage_one(per_shard: &[StageOneScores], total: usize) -> (Vec<f64>, Vec<f64>) {
    let s = per_shard.len();
    debug_assert_eq!(
        total,
        per_shard.iter().map(|p| p.vote_scores.len()).sum::<usize>()
    );
    let mut vote_scores = vec![0.0f64; total];
    let mut cyl_scores = vec![0.0f64; total];
    for (k, scores) in per_shard.iter().enumerate() {
        for (local, (&v, &c)) in scores
            .vote_scores
            .iter()
            .zip(&scores.cyl_scores)
            .enumerate()
        {
            let global = local * s + k;
            vote_scores[global] = v;
            cyl_scores[global] = c;
        }
    }
    (vote_scores, cyl_scores)
}

/// Runs the ONE global best-rank fusion over stitched global score arrays
/// and deals the selected global ids back to their owning shards as local
/// ids (selection order within each shard is preserved; stage 2 does not
/// depend on it — parts are sorted afterwards).
pub fn select_per_shard(
    vote_scores: &[f64],
    cyl_scores: &[f64],
    shortlist: usize,
    shards: usize,
) -> Vec<Vec<u32>> {
    let selected = fuse_select(vote_scores, cyl_scores, shortlist);
    let mut selected_local: Vec<Vec<u32>> = vec![Vec::new(); shards];
    for global in selected {
        selected_local[global as usize % shards].push(global / shards as u32);
    }
    selected_local
}

/// Maps one shard's stage-2 part from local to global ids and sorts it by
/// the final `(score desc, id asc)` comparator, making it a mergeable run.
pub fn globalize_and_sort(part: &mut [Candidate], shard: usize, shards: usize) {
    for candidate in part.iter_mut() {
        candidate.id = candidate.id * shards as u32 + shard as u32;
    }
    part.sort_unstable_by(final_order);
}

/// The final order of every candidate list: exact score descending, ties
/// by id ascending (a strict total order, since ids are unique).
fn final_order(a: &Candidate, b: &Candidate) -> std::cmp::Ordering {
    b.score.cmp(&a.score).then(a.id.cmp(&b.id))
}

/// Merges sorted per-shard parts by (score desc, global id asc). Ids are
/// unique, so the order is strict and the merge equals sorting the
/// concatenation, i.e. the unsharded final sort; the stable sort finds the
/// parts' sorted runs and merges them.
pub fn merge_sorted_parts(parts: &[Vec<Candidate>]) -> Vec<Candidate> {
    let mut candidates = parts.concat();
    candidates.sort_by(final_order);
    candidates
}
