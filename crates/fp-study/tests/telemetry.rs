//! End-to-end checks of the telemetry wiring: a miniature study must leave
//! sensible traces in every instrument family, and the deterministic
//! sections of the snapshot must be identical across same-seed runs.

use fp_core::ids::DeviceId;
use fp_sensor::DEVICES;
use fp_study::config::StudyConfig;
use fp_study::scores::StudyData;
use fp_telemetry::Telemetry;

const SUBJECTS: usize = 6;
const IMPOSTORS: usize = 20;

fn tiny_config() -> StudyConfig {
    StudyConfig::builder()
        .subjects(SUBJECTS)
        .seed(77)
        .impostors_per_cell(IMPOSTORS)
        .build()
}

#[test]
fn study_records_all_instrument_families() {
    let telemetry = Telemetry::enabled();
    let data = StudyData::generate_with(&tiny_config(), &telemetry);
    let snap = telemetry.snapshot();

    // Every (gallery, probe) device cell gets a non-empty duration histogram
    // covering its genuine and impostor score loops.
    for g in 0..DEVICES.len() {
        for p in 0..DEVICES.len() {
            let name = format!("scores.cell.g{g}p{p}");
            let hist = snap
                .durations
                .get(&name)
                .unwrap_or_else(|| panic!("missing duration {name}"));
            assert_eq!(hist.count, 2, "{name}: genuine + impostor passes");
            assert!(hist.sum > 0, "{name} has zero recorded time");
        }
    }

    // Top-level spans.
    for span in ["study.dataset", "study.dataset.population", "study.scores"] {
        assert!(snap.durations.contains_key(span), "missing span {span}");
    }

    // Comparison counters match the study geometry exactly.
    let cells = (DEVICES.len() * DEVICES.len()) as u64;
    assert_eq!(
        snap.counters["scores.comparisons.genuine"],
        cells * SUBJECTS as u64
    );
    assert_eq!(
        snap.counters["scores.comparisons.impostor"],
        cells * IMPOSTORS as u64
    );
    assert_eq!(
        snap.counters["match.pairtable.comparisons"],
        cells * (SUBJECTS + IMPOSTORS) as u64
    );

    // Per-device impression counts: two sessions per device per subject.
    // D4 (ink) runs one extra capture per subject because its session-1
    // sample is a re-digitization of a freshly re-captured session-0 card.
    for device in DeviceId::ALL {
        let per_subject = if device == DeviceId(4) { 3 } else { 2 };
        assert_eq!(
            snap.counters[&format!("sensor.d{}.impressions", device.0)],
            per_subject * SUBJECTS as u64,
            "device {device}"
        );
    }

    // Synthesis work: the protocol regenerates the master per capture.
    assert!(snap.counters["synth.masters"] >= SUBJECTS as u64);
    assert!(snap.values["synth.minutiae_per_master"].count > 0);
    assert!(snap.values["sensor.minutiae_per_impression"].count > 0);
    assert!(snap.values["match.pairtable.table_entries"].count > 0);
    // Pass-1 work: one window-visit record per comparison that reached
    // pass 1, next to its association count, and every association was
    // found on a visit (one visit can yield a direct and a swapped one).
    let visits = &snap.values["match.pairtable.window_visits"];
    let associations = &snap.values["match.pairtable.associations"];
    assert_eq!(visits.count, associations.count);
    assert!(visits.count > 0 && visits.sum > 0);
    assert!(associations.sum <= 2 * visits.sum);

    // Stage records exist and their per-thread item counts add up.
    let stage = |name: &str| {
        snap.stages
            .iter()
            .find(|s| s.stage == name)
            .unwrap_or_else(|| panic!("missing stage {name}"))
    };
    assert_eq!(
        stage("dataset.capture")
            .threads
            .iter()
            .map(|t| t.items)
            .sum::<u64>(),
        SUBJECTS as u64
    );
    assert_eq!(stage("scores.prepare").items, SUBJECTS as u64);
    assert_eq!(stage("scores.genuine").items, cells);
    assert_eq!(stage("scores.impostor").items, cells);
    for s in &snap.stages {
        assert!(s.wall_ns > 0, "stage {} has zero wall time", s.stage);
        for t in &s.threads {
            assert!(
                (0.0..=1.5).contains(&t.utilization),
                "stage {} thread utilization {} out of range",
                s.stage,
                t.utilization
            );
        }
    }

    // The data itself is untouched by instrumentation.
    let plain = StudyData::generate(&tiny_config());
    assert_eq!(
        data.scores.genuine_values(DeviceId(0), DeviceId(4)),
        plain.scores.genuine_values(DeviceId(0), DeviceId(4))
    );
}

#[test]
fn deterministic_sections_are_identical_across_same_seed_runs() {
    let run = || {
        let telemetry = Telemetry::enabled();
        let data = StudyData::generate_with(&tiny_config(), &telemetry);
        (telemetry.snapshot(), data)
    };
    let (a, data_a) = run();
    let (b, data_b) = run();

    // Counters and work-size histograms are pure functions of the seed.
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.values, b.values);

    // And the science output is identical too.
    for g in DeviceId::ALL {
        for p in DeviceId::ALL {
            assert_eq!(
                data_a.scores.genuine_values(g, p),
                data_b.scores.genuine_values(g, p)
            );
            assert_eq!(
                data_a.scores.impostor_cell(g, p),
                data_b.scores.impostor_cell(g, p)
            );
        }
    }
}

#[test]
fn study_trace_is_a_well_formed_tree_with_cell_spans() {
    let telemetry = Telemetry::enabled();
    let wall = std::time::Instant::now();
    let _ = StudyData::generate_with(&tiny_config(), &telemetry);
    let wall_ns = wall.elapsed().as_nanos() as u64;
    let trace = telemetry.trace_snapshot();

    assert_eq!(trace.dropped_spans, 0, "tiny study must fit the buffer");
    trace.validate_tree().expect("span tree is well-formed");

    // One span per device-pair cell and per pass, carrying its attributes.
    for g in 0..DEVICES.len() {
        for p in 0..DEVICES.len() {
            let name = format!("scores.cell.g{g}p{p}");
            let cell_spans: Vec<_> = trace.spans.iter().filter(|s| s.name == name).collect();
            assert_eq!(cell_spans.len(), 2, "{name}: genuine + impostor passes");
            for span in cell_spans {
                let attr = |k: &str| {
                    span.attrs
                        .iter()
                        .find(|(key, _)| key == k)
                        .map(|(_, v)| v.as_str())
                };
                assert_eq!(attr("gallery"), Some(g.to_string().as_str()));
                assert_eq!(attr("probe"), Some(p.to_string().as_str()));
                assert!(matches!(attr("pass"), Some("genuine" | "impostor")));
            }
        }
    }

    // Self-time attribution telescopes: on every thread, self times sum
    // exactly to that thread's top spans (roots, or spans whose parent ran
    // on another thread), and the root spans cover the pipeline's wall
    // clock to within 5%.
    let total_self: u64 = trace.self_times().values().map(|t| t.self_ns).sum();
    let thread_of: std::collections::BTreeMap<u64, u64> =
        trace.spans.iter().map(|s| (s.id, s.thread)).collect();
    let top_ns: u64 = trace
        .spans
        .iter()
        .filter(|s| match s.parent {
            None => true,
            Some(p) => thread_of.get(&p) != Some(&s.thread),
        })
        .map(|s| s.dur_ns)
        .sum();
    assert_eq!(
        total_self, top_ns,
        "self times must telescope to thread tops"
    );
    let root_ns: u64 = trace
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur_ns)
        .sum();
    assert!(
        root_ns as f64 >= wall_ns as f64 * 0.95 && root_ns <= wall_ns,
        "root spans cover {root_ns} ns of {wall_ns} ns wall clock"
    );
}

#[test]
fn trace_structure_is_deterministic_across_same_seed_runs() {
    // Timestamps vary run to run; the *structure* — which spans exist, with
    // which names and attributes — is a pure function of the seed.
    let run = || {
        let telemetry = Telemetry::enabled();
        let _ = StudyData::generate_with(&tiny_config(), &telemetry);
        let mut shape: Vec<(String, Vec<(String, String)>)> = telemetry
            .trace_snapshot()
            .spans
            .into_iter()
            .map(|s| (s.name, s.attrs))
            .collect();
        shape.sort();
        shape
    };
    assert_eq!(run(), run());
}

#[test]
fn summary_renders_from_a_real_run() {
    let telemetry = Telemetry::enabled();
    let _ = StudyData::generate_with(&tiny_config(), &telemetry);
    let summary = fp_telemetry::render_summary(&telemetry.snapshot());
    assert!(summary.contains("telemetry summary"));
    assert!(summary.contains("scores.comparisons.genuine"));
    assert!(summary.contains("util"));
}
