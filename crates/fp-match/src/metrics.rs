//! Pre-registered telemetry instruments for the matchers.
//!
//! Each matcher owns a small bundle of counters and work-size histograms,
//! registered once via `with_telemetry` and bumped with relaxed atomics on
//! every comparison. The `Default` bundles are disabled: every record is a
//! no-op, so uninstrumented matchers pay nothing.
//!
//! Everything recorded here measures *work* — table entries, association
//! counts, cluster sizes, votes, descriptors — which is a pure function of
//! the input templates, so two same-seed study runs report identical values.

use fp_telemetry::{Counter, Telemetry, ValueHistogram};

/// Instruments for [`crate::PairTableMatcher`].
#[derive(Debug, Clone, Default)]
pub struct PairTableMetrics {
    /// `match.pairtable.comparisons` — comparisons scored.
    pub(crate) comparisons: Counter,
    /// `match.pairtable.table_entries` — pair-table size per prepared
    /// template.
    pub(crate) table_entries: ValueHistogram,
    /// `match.pairtable.associations` — compatibility-table entries per
    /// comparison.
    pub(crate) associations: ValueHistogram,
    /// `match.pairtable.cluster_size` — associations surviving the
    /// rotation-consistency window (the largest rotation cluster).
    pub(crate) cluster_size: ValueHistogram,
    /// `match.pairtable.window_visits` — probe entries visited inside
    /// distance windows per comparison (the pass-1 work that the
    /// associations are found in).
    pub(crate) window_visits: ValueHistogram,
}

impl PairTableMetrics {
    /// Registers the pair-table instruments on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> PairTableMetrics {
        PairTableMetrics {
            comparisons: telemetry.counter("match.pairtable.comparisons"),
            table_entries: telemetry.value("match.pairtable.table_entries"),
            associations: telemetry.value("match.pairtable.associations"),
            cluster_size: telemetry.value("match.pairtable.cluster_size"),
            window_visits: telemetry.value("match.pairtable.window_visits"),
        }
    }
}

/// Instruments for [`crate::HoughMatcher`].
#[derive(Debug, Clone, Default)]
pub struct HoughMetrics {
    /// `match.hough.comparisons` — comparisons scored.
    pub(crate) comparisons: Counter,
    /// `match.hough.vote_cells` — occupied transform-space cells per
    /// comparison.
    pub(crate) vote_cells: ValueHistogram,
    /// `match.hough.peak_votes` — vote mass of the winning 3×3×3
    /// neighbourhood.
    pub(crate) peak_votes: ValueHistogram,
}

impl HoughMetrics {
    /// Registers the Hough instruments on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> HoughMetrics {
        HoughMetrics {
            comparisons: telemetry.counter("match.hough.comparisons"),
            vote_cells: telemetry.value("match.hough.vote_cells"),
            peak_votes: telemetry.value("match.hough.peak_votes"),
        }
    }
}

/// Instruments for [`crate::MccMatcher`].
#[derive(Debug, Clone, Default)]
pub struct MccMetrics {
    /// `match.mcc.comparisons` — comparisons scored.
    pub(crate) comparisons: Counter,
    /// `match.mcc.valid_cylinders` — valid descriptors per prepared
    /// template.
    pub(crate) valid_cylinders: ValueHistogram,
}

impl MccMetrics {
    /// Registers the MCC instruments on `telemetry`.
    pub fn new(telemetry: &Telemetry) -> MccMetrics {
        MccMetrics {
            comparisons: telemetry.counter("match.mcc.comparisons"),
            valid_cylinders: telemetry.value("match.mcc.valid_cylinders"),
        }
    }
}
