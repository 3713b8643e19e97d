//! **Gate: persistent gallery store parity** — search over a gallery
//! reopened from disk must be *byte-identical* to fresh in-memory
//! enrollment of the same entries, through every lifecycle event the
//! store supports.
//!
//! The fp-store unit tests prove the invariant on a small gallery; this
//! gate re-proves it on every CI run at system scale, over the same
//! synthetic cohort the scaling study uses, across five rungs:
//!
//! 1. **Open parity** — a two-segment gallery opened as a
//!    [`CandidateIndex`] returns bitwise-equal candidate lists and an
//!    equal RUNFP chain vs fresh enrollment (and records how much faster
//!    opening is than enrolling).
//! 2. **Sharded open parity** — the same store dealt into an in-process
//!    sharded index.
//! 3. **Serve-from-store** (with `--remote-shards`) — a real
//!    `serve-shard --gallery-dir` child answers the same probes without a
//!    single enroll RPC, is then SIGKILLed mid-run and restarted from the
//!    same directory, and still agrees — the crash-recovery path.
//! 4. **Churn parity** — tombstone a spread of entries, append a
//!    re-enrollment segment, and the live view still equals fresh
//!    enrollment of the survivors in live order.
//! 5. **Compact parity** — compaction reclaims the tombstones into one
//!    fresh segment without perturbing a byte, and every CRC checks out.
//!
//! Any divergence fails the gate loudly with the first offending probe.

use std::path::Path;
use std::time::Instant;

use fp_core::template::Template;
use fp_index::IndexConfig;
use fp_store::{CompactStats, GalleryStore};
use fp_telemetry::Telemetry;
use serde_json::json;

use crate::config::StudyConfig;
use crate::experiments::topology::{
    enroll, replay, synthetic_template, Baseline, Cohort, Probe, Topology,
};
use crate::report::Report;

/// Probes checked on every rung (each searches the whole gallery).
const MAX_PROBES: usize = 24;

/// What the parity pass measured.
struct StoreStats {
    gallery: usize,
    probes: usize,
    shards: usize,
    runfp: String,
    enroll_ms: f64,
    open_ms: f64,
    remote_checked: bool,
    churn_tombstoned: usize,
    churn_replacements: usize,
    compact: CompactStats,
    live_final: usize,
}

/// Refuses to clobber a directory that doesn't look like a gallery; clears
/// it when it does (the gate rebuilds the store from scratch every run).
fn prepare_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        let is_gallery = dir.join("MANIFEST").exists();
        let is_empty = std::fs::read_dir(dir)
            .map(|mut d| d.next().is_none())
            .unwrap_or(false);
        if !is_gallery && !is_empty {
            return Err(format!(
                "{} exists and holds no gallery MANIFEST; refusing to rebuild it",
                dir.display()
            ));
        }
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Writes `cohort`'s pool at `dir` (already prepared) as TWO segments
/// (60/40), so the open path exercises multi-segment concatenation, not
/// just a trivial single-file load. Returns the store, segment A's
/// sequence number and its length.
fn write_gallery(
    dir: &Path,
    cohort: &Cohort,
    config: &StudyConfig,
) -> Result<(GalleryStore, u32, usize), String> {
    let index_config = IndexConfig::scaled(cohort.pool.len());
    let split = cohort.pool.len() * 3 / 5;
    let mut store =
        GalleryStore::create(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let seq_a = store
        .append_index(&enroll(&cohort.pool[..split], index_config, config.seed))
        .map_err(|e| format!("append segment A: {e}"))?;
    store
        .append_index(&enroll(&cohort.pool[split..], index_config, config.seed))
        .map_err(|e| format!("append segment B: {e}"))?;
    Ok((store, seq_a, split))
}

/// Builds the gate's synthetic gallery at `dir` as two segments — the
/// `study gallery build` entry point. Returns `(live entries, segments)`.
/// The cohort is identical to `study check-store`'s at the same
/// `--subjects`/`--seed`, so a built gallery can be served, inspected and
/// compacted by the other subcommands.
pub fn build_gallery(config: &StudyConfig, dir: &Path) -> Result<(usize, usize), String> {
    prepare_dir(dir)?;
    let cohort = Cohort::new(config.seed, 0xE5, config.subjects * 10);
    let (store, _, _) = write_gallery(dir, &cohort, config)?;
    Ok((store.live_len(), store.segments().len()))
}

/// Runs the gate: `Ok` with the stats, or the first divergence found.
fn check(config: &StudyConfig, dir: &Path) -> Result<StoreStats, String> {
    prepare_dir(dir)?;

    let gallery = config.subjects * 10;
    let cohort = Cohort::new(config.seed, 0xE5, gallery);
    let index_config = IndexConfig::scaled(gallery);
    let probes = cohort.probes(gallery, MAX_PROBES);

    // The fresh-enrollment baseline every rung is compared against — and
    // the enroll-from-scratch cost the store exists to avoid paying twice.
    let start = Instant::now();
    let fresh = enroll(&cohort.pool, index_config, config.seed);
    let enroll_ms = start.elapsed().as_secs_f64() * 1e3;
    let baseline = Baseline::search(&fresh, &probes);

    let (mut store, seq_a, split) = write_gallery(dir, &cohort, config)?;

    // Rung 1: plain open parity (timed — the headline number).
    let start = Instant::now();
    let opened = GalleryStore::open(dir)
        .and_then(|s| s.open_index())
        .map_err(|e| format!("open gallery: {e}"))?
        .with_run_seed(config.seed);
    let open_ms = start.elapsed().as_secs_f64() * 1e3;
    if opened.len() != gallery {
        return Err(format!(
            "opened index has {} entries, enrolled {gallery}",
            opened.len()
        ));
    }
    replay(&opened, &probes, &baseline, 1)?.require_parity("opened-store")?;

    // Rung 2: the same store dealt into an in-process sharded index.
    let shards = config.shards.max(2);
    let sharded = store
        .open_sharded(shards)
        .map_err(|e| format!("open sharded: {e}"))?
        .with_run_seed(config.seed);
    replay(&sharded, &probes, &baseline, 1)?.require_parity(&format!("{shards}-shard open"))?;

    // Rung 3: a real serve-shard child loads the gallery itself — zero
    // enroll RPCs — then survives a SIGKILL + restart from the same dir.
    let remote_checked = config.remote_shards >= 1;
    if remote_checked {
        remote_rung(config, dir, index_config, &probes, &baseline)?;
    }

    // Rung 4: churn. Tombstone every 7th entry of segment A, append a
    // re-enrollment segment, and the live view must equal fresh
    // enrollment of the survivors in live order.
    for at in (0..split as u32).step_by(7) {
        store
            .tombstone(seq_a, at)
            .map_err(|e| format!("tombstone ({seq_a}, {at}): {e}"))?;
    }
    let churn_tombstoned = split.div_ceil(7);
    let replacements: Vec<Template> = (0..3)
        .map(|j| synthetic_template(&cohort.seeds, (gallery * 10 + j) as u64, 26))
        .collect();
    store
        .append_index(&enroll(&replacements, index_config, config.seed))
        .map_err(|e| format!("append replacement segment: {e}"))?;

    let mut live: Vec<Template> = cohort.pool[..split]
        .iter()
        .enumerate()
        .filter(|(at, _)| at % 7 != 0)
        .map(|(_, t)| t.clone())
        .collect();
    live.extend_from_slice(&cohort.pool[split..]);
    live.extend_from_slice(&replacements);
    let fresh = Baseline::search(&enroll(&live, index_config, config.seed), &probes);

    let churned = store
        .open_index()
        .map_err(|e| format!("open churned gallery: {e}"))?
        .with_run_seed(config.seed);
    if churned.len() != live.len() {
        return Err(format!(
            "churned live view has {} entries, expected {}",
            churned.len(),
            live.len()
        ));
    }
    replay(&churned, &probes, &fresh, 1)?.require_parity("churned-store")?;

    // Rung 5: compact reclaims the tombstones without perturbing a byte.
    let compact = store.compact().map_err(|e| format!("compact: {e}"))?;
    if compact.segments_after != 1 || store.tombstone_count() != 0 {
        return Err(format!(
            "compact left {} segments and {} tombstones (expected 1 and 0)",
            compact.segments_after,
            store.tombstone_count()
        ));
    }
    if compact.bytes_after >= compact.bytes_before {
        return Err(format!(
            "compact did not reclaim space ({} -> {} bytes)",
            compact.bytes_before, compact.bytes_after
        ));
    }
    let compacted = store
        .open_index()
        .map_err(|e| format!("open compacted gallery: {e}"))?
        .with_run_seed(config.seed);
    replay(&compacted, &probes, &fresh, 1)?.require_parity("compacted-store")?;
    let inspect = store.inspect().map_err(|e| format!("inspect: {e}"))?;
    if !inspect.all_crc_ok() {
        return Err("a compacted segment failed its CRC check".to_string());
    }

    Ok(StoreStats {
        gallery,
        probes: probes.len(),
        shards,
        runfp: baseline.runfp,
        enroll_ms,
        open_ms,
        remote_checked,
        churn_tombstoned,
        churn_replacements: replacements.len(),
        compact,
        live_final: live.len(),
    })
}

/// The cross-process rung: a `serve-shard --gallery-dir` child answers the
/// probe loop from the persisted gallery (no enroll RPCs), gets SIGKILLed,
/// is restarted from the same directory, and must still agree byte for
/// byte.
///
/// One child, not `--remote-shards` of them: the store persists the whole
/// gallery, and every child opening the same directory would serve every
/// entry. Serving one store across many hosts needs per-shard gallery
/// directories (see ROADMAP).
fn remote_rung(
    config: &StudyConfig,
    dir: &Path,
    index_config: IndexConfig,
    probes: &[Probe],
    baseline: &Baseline,
) -> Result<(), String> {
    let dir_arg = dir.to_str().ok_or("gallery dir is not valid UTF-8")?;
    let child_args = [vec!["--gallery-dir".to_string(), dir_arg.to_string()]];
    // The first pass crashes the child instead of shutting it down — the
    // restart pass must recover from the same directory.
    for (label, crash) in [
        ("serve-from-store", true),
        ("serve-after-crash-restart", false),
    ] {
        let topology = Topology::spawn(
            &child_args,
            index_config,
            config.seed,
            &Telemetry::disabled(),
        )
        .map_err(|e| format!("{label}: {e}"))?;
        replay(&topology.coordinator, probes, baseline, 1)
            .map_err(|e| format!("{label}: {e}"))?
            .require_parity(label)?;
        if crash {
            drop(topology); // SIGKILLs the child: `ShardChild` kills on drop
        } else {
            topology.shutdown();
        }
    }
    Ok(())
}

/// Runs the gate and renders the report. `values["error"]` is `null` on
/// success; the CLI exit code keys off it.
pub fn run_check(config: &StudyConfig, gallery_dir: &Path) -> Report {
    match check(config, gallery_dir) {
        Ok(stats) => {
            let speedup = stats.enroll_ms / stats.open_ms.max(1e-9);
            let mut body = format!(
                "persistent-store parity over a {}-entry gallery ({} probes):\n\
                 \n\
                 open = fresh enrollment: candidate lists bitwise equal, RUNFP {}\n\
                 sharded open ({} shards): equal\n",
                stats.gallery, stats.probes, stats.runfp, stats.shards,
            );
            if stats.remote_checked {
                body.push_str(
                    "serve-shard --gallery-dir: equal, zero enroll RPCs, survived kill+restart\n",
                );
            } else {
                body.push_str("serve-shard --gallery-dir: skipped (run with --remote-shards 1)\n");
            }
            body.push_str(&format!(
                "churn ({} tombstones + {} re-enrollments): equal\n\
                 compact ({} -> {} segments, {} entries reclaimed, {} -> {} bytes): equal, all CRCs ok\n\
                 \n\
                 open {:.1} ms vs enroll {:.1} ms ({speedup:.0}x); {} live entries on disk\n",
                stats.churn_tombstoned,
                stats.churn_replacements,
                stats.compact.segments_before,
                stats.compact.segments_after,
                stats.compact.entries_dropped,
                stats.compact.bytes_before,
                stats.compact.bytes_after,
                stats.open_ms,
                stats.enroll_ms,
                stats.live_final,
            ));
            Report::new(
                "check-store",
                "persisted gallery = fresh enrollment (bitwise)",
                body,
                json!({
                    "error": null,
                    "gallery": stats.gallery,
                    "probes": stats.probes,
                    "shards": stats.shards,
                    "runfp": stats.runfp,
                    "enroll_ms": stats.enroll_ms,
                    "open_ms": stats.open_ms,
                    "remote_checked": stats.remote_checked,
                    "churn_tombstoned": stats.churn_tombstoned,
                    "churn_replacements": stats.churn_replacements,
                    "compact": serde_json::to_value(stats.compact).expect("serializable"),
                    "live_final": stats.live_final,
                }),
            )
        }
        Err(error) => Report::new(
            "check-store",
            "persisted gallery = fresh enrollment (bitwise)",
            format!("STORE PARITY FAILED: {error}\n"),
            json!({ "error": error }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StudyConfig;

    #[test]
    fn gate_passes_on_the_default_cohort() {
        let config = StudyConfig::builder().subjects(6).build();
        let dir = std::env::temp_dir().join(format!("fp-check-store-{}", std::process::id()));
        let report = run_check(&config, &dir);
        assert!(
            report.values["error"].is_null(),
            "store parity gate failed: {}",
            report.body
        );
        assert!(report.values["open_ms"].as_f64().unwrap() > 0.0);
        assert_eq!(report.values["compact"]["segments_after"], 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_to_clobber_a_non_gallery_directory() {
        let dir = std::env::temp_dir().join(format!("fp-check-store-guard-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("precious.txt"), "not a gallery").unwrap();
        let config = StudyConfig::builder().subjects(2).build();
        let report = run_check(&config, &dir);
        assert!(!report.values["error"].is_null());
        assert!(
            dir.join("precious.txt").exists(),
            "must not delete user files"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
