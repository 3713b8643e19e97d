//! Generated 1:N inputs: a live-scan gallery and a probe mix over every
//! device, captured through the sensor model from a seeded cohort.

use std::time::Instant;

use fp_core::ids::{DeviceId, Finger, SessionId};
use fp_core::template::Template;
use fp_match::{PairTableMatcher, PreparableMatcher};
use fp_sensor::CaptureProtocol;
use fp_study::parallel::parallel_map_metered;
use fp_synth::population::{Population, PopulationConfig};
use fp_telemetry::{FingerprintChain, Telemetry};

use crate::common::{fold_template, mean, secs};

/// The ink-card device: probes from it re-rank about twice as slowly.
pub const CARD: u8 = 4;

/// Gallery templates timed through `prepare` alone.
const PREPARE_SAMPLE: usize = 200;

pub struct Probe {
    pub template: Template,
    /// Gallery id of the probe's mate (gallery id = subject index).
    pub mate: u32,
    pub device: u8,
}

pub struct Inputs {
    /// Session-0 D0 captures; entry `i` belongs to subject `i`.
    pub gallery: Vec<Template>,
    /// Session-1 captures of subjects spread evenly over the gallery, on
    /// devices D0..D4 in turn, so one probe in five is an ink card.
    pub probes: Vec<Probe>,
}

impl Inputs {
    pub fn generate(seed: u64, gallery_len: usize, probe_count: usize) -> Inputs {
        let population = Population::generate(&PopulationConfig::new(seed, gallery_len));
        let subjects = population.subjects();
        let protocol = CaptureProtocol::new();
        let off = Telemetry::disabled();
        let capture = |subject: usize, device: u8, session: u8| {
            protocol
                .capture(
                    &subjects[subject],
                    Finger::RIGHT_INDEX,
                    DeviceId(device),
                    SessionId(session),
                )
                .template()
                .clone()
        };
        let gallery =
            parallel_map_metered(gallery_len, &off, "perfbench.gallery", |i| capture(i, 0, 0));
        let probes = parallel_map_metered(probe_count, &off, "perfbench.probes", |i| {
            let mate = i * gallery_len / probe_count;
            let device = (i % 5) as u8;
            Probe {
                template: capture(mate, device, 1),
                mate: mate as u32,
                device,
            }
        });
        Inputs { gallery, probes }
    }

    /// The dataset part of the run stamp.
    pub fn stamp(&self) -> String {
        let mut chain = FingerprintChain::new(0);
        for template in self
            .gallery
            .iter()
            .chain(self.probes.iter().map(|p| &p.template))
        {
            fold_template(&mut chain, template);
        }
        format!("{:016x}", chain.value())
    }

    /// Mean `PairTableMatcher::prepare` time per gallery template, in µs.
    pub fn prepare_us(&self) -> f64 {
        let matcher = PairTableMatcher::default();
        let sample = &self.gallery[..PREPARE_SAMPLE.min(self.gallery.len())];
        let start = Instant::now();
        for template in sample {
            std::hint::black_box(matcher.prepare(template));
        }
        secs(start.elapsed()) / sample.len() as f64 * 1e6
    }
}

/// Mean of `f` over per-probe layer records `(device, layers)`: all probes,
/// or only ink-card (`Some(true)`) or live-scan (`Some(false)`) ones.
pub fn per_probe_mean<L>(layers: &[(u8, L)], f: &dyn Fn(&L) -> f64, card: Option<bool>) -> f64 {
    let picked: Vec<f64> = layers
        .iter()
        .filter(|(device, _)| card.is_none_or(|c| (*device == CARD) == c))
        .map(|(_, l)| f(l))
        .collect();
    mean(&picked)
}
