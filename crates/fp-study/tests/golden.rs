//! Golden regression tests: exact pinned values for the study's headline
//! numbers at a small fixed scale, plus same-seed determinism of the
//! identification experiment.
//!
//! The pinned constants were produced by this same code; they exist to make
//! *any* behavioral drift in the pipeline (synthesis, capture, matching,
//! calibration, indexing) fail loudly. If a deliberate change moves them,
//! re-pin and say so in the commit. The score-matrix fingerprint is the
//! exact pin: one hash over every score's bits. The 1e-9 mean pins stay as
//! readable diagnostics of *how far* a drift moved the numbers.

use fp_core::ids::DeviceId;
use fp_study::config::StudyConfig;
use fp_study::experiments;
use fp_study::scores::StudyData;
use fp_telemetry::{FingerprintChain, Telemetry};

/// The golden scale: small enough to run in seconds, big enough that every
/// statistic has real input.
fn golden_config() -> StudyConfig {
    StudyConfig::builder()
        .subjects(16)
        .seed(42)
        .impostors_per_cell(60)
        .build()
}

fn golden_data() -> StudyData {
    StudyData::generate(&golden_config())
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[test]
fn genuine_score_means_are_pinned() {
    let data = golden_data();
    let dmg = mean(&data.scores.dmg());
    let ddmg = mean(&data.scores.ddmg());
    println!("dmg mean:  {dmg:?}");
    println!("ddmg mean: {ddmg:?}");
    assert!(
        (dmg - GOLDEN_DMG_MEAN).abs() < 1e-9,
        "DMG mean drifted: {dmg:?}"
    );
    assert!(
        (ddmg - GOLDEN_DDMG_MEAN).abs() < 1e-9,
        "DDMG mean drifted: {ddmg:?}"
    );
    // The paper's core finding at any scale: cross-device genuine scores
    // sit below same-device ones.
    assert!(ddmg < dmg);
}

/// Every score of the golden-config matrix, folded as raw `f64` bits into
/// one chain: for each `(gallery, probe)` cell in device order, a genuine
/// then an impostor section of `(index, score bits)` words. Any change to
/// any score bit, to a cell's length or to its order moves the hex.
#[test]
fn score_matrix_fingerprint_is_pinned() {
    let data = golden_data();
    let mut chain = FingerprintChain::new(golden_config().seed);
    for gallery in DeviceId::ALL {
        for probe in DeviceId::ALL {
            chain.fold_u64(u64::from(gallery.0));
            chain.fold_u64(u64::from(probe.0));
            let genuine = data.scores.genuine_cell(gallery, probe);
            chain.fold_u64(genuine.len() as u64);
            for (index, score) in genuine.iter().enumerate() {
                chain.fold_u64(index as u64);
                chain.fold_f64(score.score);
            }
            let impostor = data.scores.impostor_cell(gallery, probe);
            chain.fold_u64(impostor.len() as u64);
            for (index, &score) in impostor.iter().enumerate() {
                chain.fold_u64(index as u64);
                chain.fold_f64(score);
            }
        }
    }
    let hex = format!("{:016x}", chain.value());
    println!("score-matrix fingerprint: {hex}");
    assert_eq!(hex, GOLDEN_SCORE_MATRIX_FP, "score matrix drifted");
}

#[test]
fn fnmr_at_fmr_cell_is_pinned() {
    let data = golden_data();
    // D1 gallery vs D4 probe (live-scan enrollment, card-scan probe): the
    // one golden-scale cell with a nonzero FNMR at the paper's fixed FMR.
    let cell = data
        .scores
        .score_set(DeviceId(1), DeviceId(4))
        .fnmr_at_fmr(golden_config().table5_fmr);
    println!("fnmr@fmr (D1 gallery, D4 probe): {cell:?}");
    assert!(
        (cell - GOLDEN_FNMR_D1_D4).abs() < 1e-12,
        "FNMR@FMR cell drifted: {cell:?}"
    );
}

#[test]
fn identification_rank1_rates_are_pinned() {
    let data = golden_data();
    let report = experiments::run("ext-identification", &data).expect("known id");
    let rows = report.values["rows"].as_array().unwrap();
    let rank1: Vec<f64> = rows.iter().map(|r| r["rank1"].as_f64().unwrap()).collect();
    println!("rank1 rates: {rank1:?}");
    for (got, want) in rank1.iter().zip(GOLDEN_RANK1) {
        assert!(
            (got - want).abs() < 1e-12,
            "rank-1 rates drifted: {rank1:?}"
        );
    }
}

#[test]
fn identification_report_is_deterministic_and_telemetry_neutral() {
    // Two independent full runs from the same seed — plus one with live
    // telemetry — must produce byte-identical rank vectors and reports.
    let a = experiments::run("ext-identification", &golden_data()).unwrap();
    let b = experiments::run("ext-identification", &golden_data()).unwrap();
    let telemetry = Telemetry::enabled();
    let c = experiments::run_with("ext-identification", &golden_data(), &telemetry).unwrap();

    let json_a = serde_json::to_string(&a).unwrap();
    let json_b = serde_json::to_string(&b).unwrap();
    let json_c = serde_json::to_string(&c).unwrap();
    assert_eq!(json_a, json_b, "same-seed reports differ");
    assert_eq!(json_a, json_c, "telemetry changed the report");
    assert_eq!(
        serde_json::to_string(&a.values["ranks"]).unwrap(),
        serde_json::to_string(&b.values["ranks"]).unwrap(),
        "rank vectors differ"
    );
    // The instrumented run must actually have recorded index work.
    let snap = telemetry.snapshot();
    assert_eq!(snap.counters["index.enrolled"], 16);
    assert!(snap.counters["index.searches"] > 0);

    // Per-search shortlist-quality histograms: one record per search, and
    // their exact sums must reproduce the global counters (work measures
    // are deterministic, so sums — not just counts — line up).
    let searches = snap.counters["index.searches"];
    let hamming = &snap.values["index.search.hamming_ops_per_search"];
    assert_eq!(hamming.count, searches);
    assert_eq!(hamming.sum, snap.counters["index.search.hamming_ops"]);
    let bucket_hits = &snap.values["index.search.bucket_hits_per_search"];
    assert_eq!(bucket_hits.count, searches);
    assert_eq!(bucket_hits.sum, snap.counters["index.search.bucket_hits"]);
}

const GOLDEN_DMG_MEAN: f64 = 30.10882426039874;
const GOLDEN_DDMG_MEAN: f64 = 24.88104145864004;
const GOLDEN_FNMR_D1_D4: f64 = 0.125;
const GOLDEN_SCORE_MATRIX_FP: &str = "85825a628b685f4f";
const GOLDEN_RANK1: [f64; 5] = [1.0, 0.9375, 1.0, 1.0, 1.0];
