//! The Bozorth3-family pair-table matcher.
//!
//! ## Algorithm
//!
//! 1. **Pair tables** (per template, rotation/translation invariant): for
//!    every minutiae pair `(i, j)` with inter-point distance in
//!    `[min_pair_distance, max_pair_distance]`, record the distance `d` and
//!    the two relative angles `beta1`/`beta2` between each minutia direction
//!    and the connecting line. The table's stored order is ascending
//!    `(d, i, j)`.
//! 2. **Compatibility association**: a gallery pair and a probe pair are
//!    compatible when their distances agree within a (distance-dependent)
//!    tolerance, both relative angles agree within an angular tolerance
//!    and (with `require_kind_match`) the minutia kinds of corresponding
//!    endpoints agree. Each compatible pair supports two minutia
//!    correspondences and implies a global rotation estimate (the
//!    direction difference of corresponding minutiae).
//! 3. **Rotation clustering**: association votes are histogrammed by implied
//!    rotation; only associations within a window around the modal rotation
//!    survive. This is what crushes impostor scores — random geometry
//!    produces compatible pairs, but their implied rotations do not agree.
//! 4. **Greedy correspondence extraction**: correspondences are ranked by
//!    support (number of surviving associations that imply them) and
//!    accepted greedily under a one-to-one constraint.
//!
//! The raw score blends the number of matched minutiae with their support
//! depth. [`crate::ScoreCalibration`] then maps raw scores onto the paper's
//! commercial scale.
//!
//! ## Class-major tables
//!
//! A [`PreparedPairTable`] stores its entries once, grouped by the kinds of
//! their two endpoints into four classes — EE, EB, BE, BB (ending,
//! bifurcation) — each a distance-sorted run; `class_start` holds the run
//! offsets. `prepare` and [`PreparedPairTable::from_raw_parts`] build the
//! layout with one counting sort from the stored order, which also records
//! each entry's class in stored order (2 bits per entry).
//! [`raw_entries`](PreparedPairTable::raw_entries) and
//! [`pair_features`](PreparedPairTable::pair_features) replay that class
//! sequence — a 4-way merge of the runs whose comparisons were made at
//! build time — to give the stored order back without comparing keys.
//!
//! The kind filter is therefore structural. A gallery pair of class
//! `(a, b)` can only associate in the direct orientation with a probe pair
//! of class `(a, b)` and in the swapped orientation with one of class
//! `(b, a)`, so pass 1 runs one two-pointer distance-window scan per such
//! class pairing (both orientations in one walk for EE and BB) and never
//! visits a probe pair whose kinds disagree. Without the kind filter the
//! same scan runs over all four probe classes in both orientations.
//!
//! The associations found are exactly those of a single scan over the
//! whole distance-sorted probe table, only in a different order, and
//! order cannot change a score: the rotation histogram and the per-
//! correspondence support counts are integer sums, and the greedy step
//! ranks correspondences by a total order (support, then `(gi, pi)`).
//! Exactness relies on the lower window edge `d - tol(d)` being
//! non-decreasing along a sorted run — true whenever
//! `relative_distance_tolerance` is well below 1 (the default is 0.01) —
//! and is checked against the single-scan reference in the unit tests.
//!
//! Inside a window, most visits fail the first angle test. A cheap
//! circular-distance check with a 1e-9 rad margin rejects those before
//! the exact `rem_euclid`-based test runs; the margin dwarfs the rounding
//! of either computation, so it only rejects what the exact test rejects.

use serde::{Deserialize, Serialize};

use fp_core::geometry::Direction;
use fp_core::minutia::MinutiaKind;
use fp_core::template::Template;
use fp_core::{MatchScore, Matcher};

use crate::PreparableMatcher;

/// Tuning parameters for [`PairTableMatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairTableConfig {
    /// Ignore minutiae pairs closer than this (mm); very short pairs carry
    /// almost no relative-angle information.
    pub min_pair_distance: f64,
    /// Ignore minutiae pairs farther apart than this (mm); long pairs are
    /// the first casualties of nonlinear cross-device distortion and cost
    /// quadratic table space.
    pub max_pair_distance: f64,
    /// Absolute distance tolerance (mm) for pair compatibility.
    pub distance_tolerance: f64,
    /// Additional distance tolerance per mm of pair length
    /// (dimensionless); absorbs smooth relative stretch.
    pub relative_distance_tolerance: f64,
    /// Tolerance (radians) on each of the two relative angles.
    pub angle_tolerance: f64,
    /// Half-width (radians) of the rotation-consistency window around the
    /// modal rotation.
    pub rotation_window: f64,
    /// Number of rotation histogram bins over the full circle.
    pub rotation_bins: usize,
    /// Support depth at which a correspondence earns its full weight.
    pub full_support: u32,
    /// Minimum number of surviving pair associations a correspondence needs
    /// before it may be accepted; shallow accidental matches are discarded.
    pub min_support: u32,
    /// Whether pair compatibility additionally requires the minutia kinds
    /// (ending vs bifurcation) of both endpoints to agree. Cuts accidental
    /// impostor associations roughly fourfold at a modest genuine cost
    /// (extraction flips kinds on a few percent of minutiae).
    pub require_kind_match: bool,
    /// Template size (minutiae) above which the score is scaled down:
    /// large templates accumulate correspondences in proportion to their
    /// size, which would otherwise inflate both genuine and impostor scores
    /// of minutiae-rich sources such as rolled ink prints.
    pub size_cap: usize,
}

impl Default for PairTableConfig {
    fn default() -> Self {
        PairTableConfig {
            min_pair_distance: 1.5,
            max_pair_distance: 12.0,
            distance_tolerance: 0.32,
            relative_distance_tolerance: 0.010,
            angle_tolerance: 0.20,
            rotation_window: 0.17,
            rotation_bins: 48,
            full_support: 8,
            min_support: 4,
            require_kind_match: true,
            size_cap: 34,
        }
    }
}

/// One entry of a template's pair table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct PairEntry {
    /// Inter-minutia distance (mm).
    d: f64,
    /// Angle between minutia `i`'s direction and the `i -> j` line.
    beta1: f64,
    /// Angle between minutia `j`'s direction and the `i -> j` line.
    beta2: f64,
    i: u16,
    j: u16,
}

impl PairEntry {
    /// Whether `self` comes strictly before `other` in stored order:
    /// ascending distance, ties broken by `(i, j)`.
    fn precedes(&self, other: &PairEntry) -> bool {
        self.d < other.d || (self.d == other.d && (self.i, self.j) < (other.i, other.j))
    }
}

/// Number of minutia-kind pair classes: `(kind i, kind j)` over
/// {ending, bifurcation}², stored in the order EE, EB, BE, BB.
const CLASSES: usize = 4;

/// The class index of a pair whose endpoints have kinds `ki` and `kj`.
#[inline]
fn class_of(ki: MinutiaKind, kj: MinutiaKind) -> usize {
    let bit = |k| match k {
        MinutiaKind::RidgeEnding => 0,
        MinutiaKind::Bifurcation => 1,
    };
    2 * bit(ki) + bit(kj)
}

/// A template pre-processed into its pair table.
///
/// Entries are stored once, class-major: class `c` (EE, EB, BE, BB)
/// occupies `entries[class_start[c]..class_start[c + 1]]`, ascending in
/// `(d, i, j)`. The stored (distance) order of the whole table is the
/// 4-way merge of those runs, recorded in `stored_classes`.
#[derive(Debug, Clone)]
pub struct PreparedPairTable {
    entries: Vec<PairEntry>,
    class_start: [usize; CLASSES + 1],
    /// The class of every entry in stored order, 2 bits each, four to a
    /// byte: the outcome of the 4-way merge that rebuilds stored order,
    /// computed once here (a quarter byte per 40-byte entry).
    stored_classes: Vec<u8>,
    directions: Vec<Direction>,
    kinds: Vec<MinutiaKind>,
    minutia_count: usize,
}

/// The rotation/translation-invariant features of one pair-table entry,
/// exposed for geometric-hash indexing (`fp-index` quantizes these into
/// bucket keys). Same quantities the matcher itself associates on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairFeature {
    /// Inter-minutia distance (mm).
    pub d: f64,
    /// Angle between the first minutia's direction and the connecting line.
    pub beta1: f64,
    /// Angle between the second minutia's direction and the connecting line.
    pub beta2: f64,
}

/// Why [`PreparedPairTable::from_raw_parts`] refused its input.
#[derive(Debug, Clone, PartialEq)]
pub enum RawPartsError {
    /// `directions` (or `kinds`) does not hold one value per minutia.
    LengthMismatch {
        /// Which array: `"directions"` or `"kinds"`.
        what: &'static str,
        /// Values it holds.
        len: usize,
        /// Minutiae it should describe.
        minutia_count: usize,
    },
    /// A direction is not canonical (outside `(-pi, pi]`).
    NonCanonicalDirection {
        /// Minutia index.
        at: usize,
        /// The offending value.
        radians: f64,
    },
    /// An entry references a minutia id `>= minutia_count`.
    MinutiaOutOfRange {
        /// Entry index.
        at: usize,
        /// First minutia id.
        i: u16,
        /// Second minutia id.
        j: u16,
        /// Minutiae in the template.
        minutia_count: usize,
    },
    /// An entry's relative angle is not canonical (outside `(-pi, pi]`).
    NonCanonicalAngle {
        /// Entry index.
        at: usize,
        /// The offending value.
        radians: f64,
    },
    /// An entry's distance is NaN or infinite.
    NonFiniteDistance {
        /// Entry index.
        at: usize,
        /// The offending distance.
        d: f64,
    },
    /// An entry does not come strictly after its predecessor in
    /// `(d, i, j)` order: the distance went backwards, a distance tie is
    /// out of `(i, j)` order, or the entry repeats its predecessor.
    OutOfOrder {
        /// Entry index.
        at: usize,
    },
}

impl std::fmt::Display for RawPartsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RawPartsError::LengthMismatch {
                what,
                len,
                minutia_count,
            } => write!(f, "{what} holds {len} values for {minutia_count} minutiae"),
            RawPartsError::NonCanonicalDirection { at, radians } => {
                write!(f, "direction {at} ({radians}) is not canonical")
            }
            RawPartsError::MinutiaOutOfRange {
                at,
                i,
                j,
                minutia_count,
            } => write!(
                f,
                "entry {at} references minutiae ({i}, {j}) of {minutia_count}"
            ),
            RawPartsError::NonCanonicalAngle { at, radians } => {
                write!(f, "entry {at} has a non-canonical angle ({radians})")
            }
            RawPartsError::NonFiniteDistance { at, d } => {
                write!(f, "entry {at} has a non-finite distance ({d})")
            }
            RawPartsError::OutOfOrder { at } => {
                write!(f, "entry {at} breaks the (distance, i, j) sort")
            }
        }
    }
}

impl std::error::Error for RawPartsError {}

/// The entries of a [`PreparedPairTable`] in stored `(d, i, j)` order:
/// the 4-way merge of the class runs, replayed from the class sequence the
/// table recorded at build time. Allocation-free, and no comparisons.
struct StoredOrder<'a> {
    table: &'a PreparedPairTable,
    /// Next entry index of each class run.
    cursor: [usize; CLASSES],
    /// Position in stored order.
    at: usize,
}

impl<'a> Iterator for StoredOrder<'a> {
    type Item = &'a PairEntry;

    fn next(&mut self) -> Option<&'a PairEntry> {
        if self.at == self.table.entries.len() {
            return None;
        }
        let c = self.table.stored_class(self.at);
        self.at += 1;
        self.cursor[c] += 1;
        Some(&self.table.entries[self.cursor[c] - 1])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.table.entries.len() - self.at;
        (left, Some(left))
    }
}

impl PreparedPairTable {
    /// Lays out `sorted` — entries in stored `(d, i, j)` order — class-major
    /// by one counting sort into a single allocation, and records the
    /// class of each entry in stored order. Within each class the input
    /// order, and therefore `(d, i, j)` order, is kept.
    fn assemble<I>(
        sorted: I,
        directions: Vec<Direction>,
        kinds: Vec<MinutiaKind>,
        minutia_count: usize,
    ) -> PreparedPairTable
    where
        I: Iterator<Item = PairEntry> + Clone,
    {
        let class = |e: &PairEntry| class_of(kinds[e.i as usize], kinds[e.j as usize]);
        let mut class_start = [0usize; CLASSES + 1];
        for e in sorted.clone() {
            class_start[class(&e) + 1] += 1;
        }
        for c in 0..CLASSES {
            class_start[c + 1] += class_start[c];
        }
        let len = class_start[CLASSES];
        let mut entries = vec![PairEntry::default(); len];
        let mut stored_classes = vec![0u8; len.div_ceil(4)];
        let mut cursor = class_start;
        for (at, e) in sorted.enumerate() {
            let c = class(&e);
            entries[cursor[c]] = e;
            cursor[c] += 1;
            stored_classes[at / 4] |= (c as u8) << (2 * (at % 4));
        }
        PreparedPairTable {
            entries,
            class_start,
            stored_classes,
            directions,
            kinds,
            minutia_count,
        }
    }

    /// The distance-sorted run of kind-pair class `c`.
    #[inline]
    fn class(&self, c: usize) -> &[PairEntry] {
        &self.entries[self.class_start[c]..self.class_start[c + 1]]
    }

    /// The class of the `at`-th entry in stored order.
    #[inline]
    fn stored_class(&self, at: usize) -> usize {
        usize::from(self.stored_classes[at / 4] >> (2 * (at % 4)) & 3)
    }

    fn stored_order(&self) -> StoredOrder<'_> {
        StoredOrder {
            table: self,
            cursor: std::array::from_fn(|c| self.class_start[c]),
            at: 0,
        }
    }

    /// Number of pair-table entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty (fewer than two in-range minutiae).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of minutiae in the originating template.
    pub fn minutia_count(&self) -> usize {
        self.minutia_count
    }

    /// The invariant features of every pair-table entry, in stored
    /// `(d, i, j)` order.
    pub fn pair_features(&self) -> impl Iterator<Item = PairFeature> + '_ {
        self.stored_order().map(|e| PairFeature {
            d: e.d,
            beta1: e.beta1,
            beta2: e.beta2,
        })
    }

    /// The raw fields of every pair-table entry in stored `(d, i, j)`
    /// order — `(d, beta1, beta2, i, j)` — for persistence. Round-trips
    /// bit-exactly through [`from_raw_parts`](Self::from_raw_parts).
    pub fn raw_entries(&self) -> impl Iterator<Item = (f64, f64, f64, u16, u16)> + '_ {
        self.stored_order()
            .map(|e| (e.d, e.beta1, e.beta2, e.i, e.j))
    }

    /// The canonical radians of every minutia direction, in minutia order
    /// (`directions.len() == minutia_count`).
    pub fn raw_directions(&self) -> impl Iterator<Item = f64> + '_ {
        self.directions.iter().map(|d| d.radians())
    }

    /// Every minutia kind, in minutia order.
    pub fn raw_kinds(&self) -> impl Iterator<Item = MinutiaKind> + '_ {
        self.kinds.iter().copied()
    }

    /// Reassembles a prepared table from its raw parts (the inverse of the
    /// `raw_*` accessors), validating every structural invariant
    /// `score_tables` relies on before constructing anything:
    ///
    /// * `directions` and `kinds` must each hold exactly `minutia_count`
    ///   values (scoring indexes both arrays by minutia id);
    /// * every entry's `i` and `j` must be `< minutia_count` (they index
    ///   `kinds`/`directions` and the one-to-one bitmaps unchecked);
    /// * every direction must already be canonical, in `(-pi, pi]` — the
    ///   value [`Direction::radians`] produces — so reconstruction is
    ///   bit-exact (re-wrapping is not);
    /// * every relative angle `beta1`/`beta2` must be canonical too, as
    ///   `prepare` makes them: the scan's angle prefilter is exact only
    ///   for canonical angles;
    /// * distances must be finite and the entries strictly ascending in
    ///   `(d, i, j)` — the order `prepare` produces, in which every entry
    ///   has a unique place. The association scan walks distance-sorted
    ///   class runs, and [`raw_entries`](Self::raw_entries) gives back
    ///   exactly this order.
    ///
    /// Violations come back as a typed [`RawPartsError`], never a panic —
    /// this is the boundary that makes hostile serialized tables safe to
    /// load.
    pub fn from_raw_parts(
        entries: Vec<(f64, f64, f64, u16, u16)>,
        directions: Vec<f64>,
        kinds: Vec<MinutiaKind>,
        minutia_count: usize,
    ) -> Result<PreparedPairTable, RawPartsError> {
        for (what, len) in [("directions", directions.len()), ("kinds", kinds.len())] {
            if len != minutia_count {
                return Err(RawPartsError::LengthMismatch {
                    what,
                    len,
                    minutia_count,
                });
            }
        }
        let directions = directions
            .into_iter()
            .enumerate()
            .map(|(at, radians)| {
                Direction::try_from_canonical_radians(radians)
                    .ok_or(RawPartsError::NonCanonicalDirection { at, radians })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let entry = |&(d, beta1, beta2, i, j): &(f64, f64, f64, u16, u16)| PairEntry {
            d,
            beta1,
            beta2,
            i,
            j,
        };
        let mut prev: Option<PairEntry> = None;
        for (at, raw) in entries.iter().enumerate() {
            let e = entry(raw);
            if usize::from(e.i) >= minutia_count || usize::from(e.j) >= minutia_count {
                return Err(RawPartsError::MinutiaOutOfRange {
                    at,
                    i: e.i,
                    j: e.j,
                    minutia_count,
                });
            }
            if let Some(&radians) = [e.beta1, e.beta2]
                .iter()
                .find(|&&beta| Direction::try_from_canonical_radians(beta).is_none())
            {
                return Err(RawPartsError::NonCanonicalAngle { at, radians });
            }
            if !e.d.is_finite() {
                return Err(RawPartsError::NonFiniteDistance { at, d: e.d });
            }
            if prev.is_some_and(|p| !p.precedes(&e)) {
                return Err(RawPartsError::OutOfOrder { at });
            }
            prev = Some(e);
        }
        Ok(PreparedPairTable::assemble(
            entries.iter().map(entry),
            directions,
            kinds,
            minutia_count,
        ))
    }
}

/// The Bozorth3-family pair-table matcher. See the module docs for the
/// algorithm.
#[derive(Debug, Clone, Default)]
pub struct PairTableMatcher {
    config: PairTableConfig,
    metrics: crate::metrics::PairTableMetrics,
}

impl PairTableMatcher {
    /// Creates a matcher with explicit tuning parameters.
    pub fn new(config: PairTableConfig) -> Self {
        PairTableMatcher {
            config,
            metrics: Default::default(),
        }
    }

    /// Registers this matcher's work counters (comparisons, table entries,
    /// association counts, rotation-cluster sizes) on `telemetry`.
    pub fn with_telemetry(mut self, telemetry: &fp_telemetry::Telemetry) -> Self {
        self.metrics = crate::metrics::PairTableMetrics::new(telemetry);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &PairTableConfig {
        &self.config
    }

    fn build_table(&self, template: &Template) -> PreparedPairTable {
        let ms = template.minutiae();
        let mut entries = Vec::new();
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                let d = ms[i].pos.distance(&ms[j].pos);
                if d < self.config.min_pair_distance || d > self.config.max_pair_distance {
                    continue;
                }
                let line = ms[i].pos.direction_to(&ms[j].pos);
                let beta1 = ms[i].direction.signed_delta(line);
                let beta2 = ms[j].direction.signed_delta(line);
                entries.push(PairEntry {
                    d,
                    beta1,
                    beta2,
                    i: i as u16,
                    j: j as u16,
                });
            }
        }
        // Stable, so distance ties keep the `(i, j)` generation order.
        entries.sort_by(|a, b| a.d.partial_cmp(&b.d).expect("distances are finite"));
        self.metrics.table_entries.record(entries.len() as u64);
        PreparedPairTable::assemble(
            entries.iter().copied(),
            ms.iter().map(|m| m.direction).collect(),
            ms.iter().map(|m| m.kind).collect(),
            ms.len(),
        )
    }

    /// Wraps an angle difference into `(-pi, pi]`.
    #[inline]
    fn wrap(a: f64) -> f64 {
        let r = a.rem_euclid(std::f64::consts::TAU);
        if r > std::f64::consts::PI {
            r - std::f64::consts::TAU
        } else {
            r
        }
    }

    /// Whether `x`, the difference of two canonical angles (each in
    /// `(-pi, pi]`), lies more than `tol` + 1e-9 from `center` — 0 for the
    /// direct orientation, pi for the swapped one — around the circle.
    ///
    /// A cheap, well-predicted reject taken before the exact test, and
    /// exact itself: for `x = a - b` the direct test is
    /// `|wrap(a - b)| <= tol`, and for the swapped one
    /// `|wrap(a - wrap(b + pi))| <= tol`; both compute this same circular
    /// distance with at most a few roundings of ~4e-16 each, far inside
    /// the 1e-9 margin, so whenever this returns `true` the exact test
    /// fails. With `|x| <= 2 pi`, `d = ||x| - center|` and `min(d, 2 pi - d)`
    /// is the circular distance for either center.
    #[inline]
    fn certainly_apart(x: f64, center: f64, tol: f64) -> bool {
        let d = (x.abs() - center).abs();
        d.min(std::f64::consts::TAU - d) > tol + 1e-9
    }

    #[inline]
    fn angles_close(a: f64, b: f64, tol: f64) -> bool {
        Self::wrap(a - b).abs() <= tol
    }

    #[inline]
    fn rotation_bin(&self, rotation: f64) -> usize {
        let bins = self.config.rotation_bins;
        let frac = (rotation + std::f64::consts::PI) / std::f64::consts::TAU;
        ((frac * bins as f64) as usize).min(bins - 1)
    }

    /// One two-pointer distance-window scan of gallery run `g_run` against
    /// probe run `p_run`, testing the direct orientation (`i->k, j->l`)
    /// when `DIRECT` and the swapped one (`i->l, j->k`) when `SWAPPED`.
    /// The caller picks runs whose kinds already agree for the tested
    /// orientations, so no kind test happens here.
    fn scan<const DIRECT: bool, const SWAPPED: bool>(
        &self,
        gallery: &PreparedPairTable,
        g_run: &[PairEntry],
        probe: &PreparedPairTable,
        p_run: &[PairEntry],
        pass1: &mut Pass1,
    ) {
        let cfg = &self.config;
        let mut lo = 0usize;
        for g in g_run {
            let tol = cfg.distance_tolerance + cfg.relative_distance_tolerance * g.d;
            while lo < p_run.len() && p_run[lo].d < g.d - tol {
                lo += 1;
            }
            let mut idx = lo;
            while idx < p_run.len() && p_run[idx].d <= g.d + tol {
                let p = &p_run[idx];
                idx += 1;
                if DIRECT
                    && !Self::certainly_apart(g.beta1 - p.beta1, 0.0, cfg.angle_tolerance)
                    && Self::angles_close(g.beta1, p.beta1, cfg.angle_tolerance)
                    && Self::angles_close(g.beta2, p.beta2, cfg.angle_tolerance)
                {
                    let rotation = Self::wrap(
                        probe.directions[p.i as usize].radians()
                            - gallery.directions[g.i as usize].radians(),
                    );
                    pass1.votes[self.rotation_bin(rotation)] += 1;
                    pass1.assocs.push(Assoc {
                        g_i: g.i,
                        g_j: g.j,
                        p_i: p.i,
                        p_j: p.j,
                        rotation,
                    });
                }
                // The probe pair traversed the other way flips the
                // connecting line by pi, so the relative angles swap roles
                // and rotate by pi.
                if SWAPPED
                    && !Self::certainly_apart(
                        g.beta1 - p.beta2,
                        std::f64::consts::PI,
                        cfg.angle_tolerance,
                    )
                    && Self::angles_close(
                        g.beta1,
                        Self::wrap(p.beta2 + std::f64::consts::PI),
                        cfg.angle_tolerance,
                    )
                    && Self::angles_close(
                        g.beta2,
                        Self::wrap(p.beta1 + std::f64::consts::PI),
                        cfg.angle_tolerance,
                    )
                {
                    let rotation = Self::wrap(
                        probe.directions[p.j as usize].radians()
                            - gallery.directions[g.i as usize].radians(),
                    );
                    pass1.votes[self.rotation_bin(rotation)] += 1;
                    pass1.assocs.push(Assoc {
                        g_i: g.i,
                        g_j: g.j,
                        p_i: p.j,
                        p_j: p.i,
                        rotation,
                    });
                }
            }
            pass1.window_visits += (idx - lo) as u64;
        }
    }

    /// Pass 1: finds every compatible pair association, clustering the
    /// implied rotations. Each gallery class is scanned against only the
    /// probe classes whose kinds can agree with it: class `(a, b)` meets
    /// probe class `(a, b)` in the direct orientation and `(b, a)` in the
    /// swapped one — a single run for EE and BB. Without the kind filter
    /// every probe class is scanned in both orientations.
    fn associate(&self, gallery: &PreparedPairTable, probe: &PreparedPairTable) -> Pass1 {
        let mut pass1 = Pass1 {
            assocs: Vec::new(),
            votes: vec![0u32; self.config.rotation_bins],
            window_visits: 0,
        };
        for gc in 0..CLASSES {
            let g_run = gallery.class(gc);
            if g_run.is_empty() {
                continue;
            }
            let reversed = 2 * (gc % 2) + gc / 2;
            if !self.config.require_kind_match {
                for pc in 0..CLASSES {
                    self.scan::<true, true>(gallery, g_run, probe, probe.class(pc), &mut pass1);
                }
            } else if reversed == gc {
                self.scan::<true, true>(gallery, g_run, probe, probe.class(gc), &mut pass1);
            } else {
                self.scan::<true, false>(gallery, g_run, probe, probe.class(gc), &mut pass1);
                self.scan::<false, true>(gallery, g_run, probe, probe.class(reversed), &mut pass1);
            }
        }
        pass1
    }

    fn score_tables(&self, gallery: &PreparedPairTable, probe: &PreparedPairTable) -> MatchScore {
        self.metrics.comparisons.incr();
        if gallery.is_empty() || probe.is_empty() {
            return MatchScore::ZERO;
        }
        let cfg = &self.config;

        let Pass1 {
            assocs,
            votes: rotation_votes,
            window_visits,
        } = self.associate(gallery, probe);
        self.metrics.associations.record(assocs.len() as u64);
        self.metrics.window_visits.record(window_visits);
        if assocs.is_empty() {
            return MatchScore::ZERO;
        }

        // Modal rotation via the vote histogram (wrap-aware pairwise sum of
        // adjacent bins smooths bin-edge splits).
        let mut best_bin = 0usize;
        let mut best_votes = 0u32;
        for b in 0..cfg.rotation_bins {
            let v = rotation_votes[b] + rotation_votes[(b + 1) % cfg.rotation_bins];
            if v > best_votes {
                best_votes = v;
                best_bin = b;
            }
        }
        let bin_width = std::f64::consts::TAU / cfg.rotation_bins as f64;
        let modal_rotation = -std::f64::consts::PI + bin_width * (best_bin as f64 + 1.0); // boundary of the smoothed pair

        // Pass 2: correspondences supported by rotation-consistent
        // associations, counted in a dense gallery x probe support array
        // whose cell index `gi * probe_n + pi` orders cells by `(gi, pi)`.
        let probe_n = probe.minutia_count;
        let mut support = vec![0u32; gallery.minutia_count * probe_n];
        let mut cells: Vec<usize> = Vec::new();
        let mut cluster_size = 0u64;
        for a in &assocs {
            if Self::wrap(a.rotation - modal_rotation).abs() > cfg.rotation_window + bin_width / 2.0
            {
                continue;
            }
            cluster_size += 1;
            for cell in [
                a.g_i as usize * probe_n + a.p_i as usize,
                a.g_j as usize * probe_n + a.p_j as usize,
            ] {
                if support[cell] == 0 {
                    cells.push(cell);
                }
                support[cell] += 1;
            }
        }
        self.metrics.cluster_size.record(cluster_size);
        if cells.is_empty() {
            return MatchScore::ZERO;
        }

        // Greedy one-to-one extraction by support depth, ties in `(gi, pi)`
        // order.
        cells.sort_unstable_by_key(|&cell| (std::cmp::Reverse(support[cell]), cell));
        let mut g_used = vec![false; gallery.minutia_count];
        let mut p_used = vec![false; probe_n];
        let mut raw = 0.0;
        for cell in cells {
            let (gi, pi, s) = (cell / probe_n, cell % probe_n, support[cell]);
            if g_used[gi] || p_used[pi] {
                continue;
            }
            if s < cfg.min_support {
                continue;
            }
            g_used[gi] = true;
            p_used[pi] = true;
            let depth = (s.min(cfg.full_support) as f64) / cfg.full_support as f64;
            raw += 0.4 + 0.6 * depth;
        }
        // Size normalization (see `PairTableConfig::size_cap`).
        let smaller = gallery.minutia_count.min(probe.minutia_count);
        if smaller > cfg.size_cap {
            raw *= cfg.size_cap as f64 / smaller as f64;
        }
        MatchScore::new(raw)
    }
}

/// An association: a gallery pair `(g_i, g_j)` mapped onto probe minutiae
/// `(p_i, p_j)` — direct maps `(i->k, j->l)`, swapped maps `(i->l, j->k)` —
/// with the global rotation it implies.
struct Assoc {
    g_i: u16,
    g_j: u16,
    p_i: u16,
    p_j: u16,
    rotation: f64,
}

/// What pass 1 of one comparison accumulates across its class scans.
struct Pass1 {
    assocs: Vec<Assoc>,
    /// Rotation histogram over `PairTableConfig::rotation_bins`.
    votes: Vec<u32>,
    /// Probe entries visited inside distance windows.
    window_visits: u64,
}

impl Matcher for PairTableMatcher {
    fn compare(&self, gallery: &Template, probe: &Template) -> MatchScore {
        self.score_tables(&self.build_table(gallery), &self.build_table(probe))
    }

    fn name(&self) -> &str {
        "pair-table"
    }
}

impl PreparableMatcher for PairTableMatcher {
    type Prepared = PreparedPairTable;

    fn prepare(&self, template: &Template) -> PreparedPairTable {
        self.build_table(template)
    }

    fn compare_prepared(
        &self,
        gallery: &PreparedPairTable,
        probe: &PreparedPairTable,
    ) -> MatchScore {
        self.score_tables(gallery, probe)
    }
}

/// The pre-partition matcher, kept verbatim as the oracle the class-major
/// path is checked against: one scan over the whole distance-ordered probe
/// table with a per-visit kind test, and a `HashMap` support count.
#[cfg(test)]
impl PairTableMatcher {
    /// Scores `gallery` against `probe` the old way; also returns the
    /// association list as `(g_i, g_j, p_i, p_j, rotation bits)`.
    #[allow(clippy::type_complexity)]
    fn score_tables_reference(
        &self,
        gallery: &PreparedPairTable,
        probe: &PreparedPairTable,
    ) -> (MatchScore, Vec<(u16, u16, u16, u16, u64)>) {
        use std::collections::HashMap;
        let gallery_entries: Vec<PairEntry> = gallery.stored_order().copied().collect();
        let probe_entries: Vec<PairEntry> = probe.stored_order().copied().collect();
        if gallery_entries.is_empty() || probe_entries.is_empty() {
            return (MatchScore::ZERO, Vec::new());
        }
        let cfg = &self.config;
        let mut assocs: Vec<Assoc> = Vec::new();
        let mut rotation_votes = vec![0u32; cfg.rotation_bins];
        let bin_of = |rot: f64| -> usize {
            let frac = (rot + std::f64::consts::PI) / std::f64::consts::TAU;
            ((frac * cfg.rotation_bins as f64) as usize).min(cfg.rotation_bins - 1)
        };

        let mut lo = 0usize;
        for g in &gallery_entries {
            let tol = cfg.distance_tolerance + cfg.relative_distance_tolerance * g.d;
            while lo < probe_entries.len() && probe_entries[lo].d < g.d - tol {
                lo += 1;
            }
            let mut idx = lo;
            while idx < probe_entries.len() && probe_entries[idx].d <= g.d + tol {
                let p = &probe_entries[idx];
                idx += 1;
                let kinds_direct = !cfg.require_kind_match
                    || (gallery.kinds[g.i as usize] == probe.kinds[p.i as usize]
                        && gallery.kinds[g.j as usize] == probe.kinds[p.j as usize]);
                if kinds_direct
                    && Self::angles_close(g.beta1, p.beta1, cfg.angle_tolerance)
                    && Self::angles_close(g.beta2, p.beta2, cfg.angle_tolerance)
                {
                    let rotation = Self::wrap(
                        probe.directions[p.i as usize].radians()
                            - gallery.directions[g.i as usize].radians(),
                    );
                    rotation_votes[bin_of(rotation)] += 1;
                    assocs.push(Assoc {
                        g_i: g.i,
                        g_j: g.j,
                        p_i: p.i,
                        p_j: p.j,
                        rotation,
                    });
                }
                let kinds_swapped = !cfg.require_kind_match
                    || (gallery.kinds[g.i as usize] == probe.kinds[p.j as usize]
                        && gallery.kinds[g.j as usize] == probe.kinds[p.i as usize]);
                if kinds_swapped
                    && Self::angles_close(
                        g.beta1,
                        Self::wrap(p.beta2 + std::f64::consts::PI),
                        cfg.angle_tolerance,
                    )
                    && Self::angles_close(
                        g.beta2,
                        Self::wrap(p.beta1 + std::f64::consts::PI),
                        cfg.angle_tolerance,
                    )
                {
                    let rotation = Self::wrap(
                        probe.directions[p.j as usize].radians()
                            - gallery.directions[g.i as usize].radians(),
                    );
                    rotation_votes[bin_of(rotation)] += 1;
                    assocs.push(Assoc {
                        g_i: g.i,
                        g_j: g.j,
                        p_i: p.j,
                        p_j: p.i,
                        rotation,
                    });
                }
            }
        }
        let listed = assocs
            .iter()
            .map(|a| (a.g_i, a.g_j, a.p_i, a.p_j, a.rotation.to_bits()))
            .collect();
        if assocs.is_empty() {
            return (MatchScore::ZERO, listed);
        }

        let mut best_bin = 0usize;
        let mut best_votes = 0u32;
        for b in 0..cfg.rotation_bins {
            let v = rotation_votes[b] + rotation_votes[(b + 1) % cfg.rotation_bins];
            if v > best_votes {
                best_votes = v;
                best_bin = b;
            }
        }
        let bin_width = std::f64::consts::TAU / cfg.rotation_bins as f64;
        let modal_rotation = -std::f64::consts::PI + bin_width * (best_bin as f64 + 1.0);

        let mut support: HashMap<(u16, u16), u32> = HashMap::new();
        for a in &assocs {
            if Self::wrap(a.rotation - modal_rotation).abs() > cfg.rotation_window + bin_width / 2.0
            {
                continue;
            }
            *support.entry((a.g_i, a.p_i)).or_insert(0) += 1;
            *support.entry((a.g_j, a.p_j)).or_insert(0) += 1;
        }
        if support.is_empty() {
            return (MatchScore::ZERO, listed);
        }

        let mut ranked: Vec<((u16, u16), u32)> = support.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut g_used = vec![false; gallery.minutia_count];
        let mut p_used = vec![false; probe.minutia_count];
        let mut raw = 0.0;
        for ((gi, pi), s) in ranked {
            if g_used[gi as usize] || p_used[pi as usize] {
                continue;
            }
            if s < cfg.min_support {
                continue;
            }
            g_used[gi as usize] = true;
            p_used[pi as usize] = true;
            let depth = (s.min(cfg.full_support) as f64) / cfg.full_support as f64;
            raw += 0.4 + 0.6 * depth;
        }
        let smaller = gallery.minutia_count.min(probe.minutia_count);
        if smaller > cfg.size_cap {
            raw *= cfg.size_cap as f64 / smaller as f64;
        }
        (MatchScore::new(raw), listed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_core::geometry::{Point, RigidMotion, Vector};
    use fp_core::minutia::{Minutia, MinutiaKind};
    use fp_core::rng::SeedTree;
    use rand::Rng;

    /// A deterministic synthetic template with `n` well-spread minutiae.
    fn synthetic_template(seed: u64, n: usize) -> Template {
        let mut rng = SeedTree::new(seed).rng();
        let mut minutiae = Vec::new();
        let mut attempts = 0;
        while minutiae.len() < n && attempts < 10_000 {
            attempts += 1;
            let pos = Point::new(
                rng.gen::<f64>() * 16.0 - 8.0,
                rng.gen::<f64>() * 20.0 - 10.0,
            );
            if minutiae
                .iter()
                .any(|m: &Minutia| m.pos.distance(&pos) < 1.4)
            {
                continue;
            }
            let dir = Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU);
            let kind = if rng.gen::<bool>() {
                MinutiaKind::RidgeEnding
            } else {
                MinutiaKind::Bifurcation
            };
            minutiae.push(Minutia::new(pos, dir, kind, 1.0));
        }
        Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(minutiae)
            .build()
            .unwrap()
    }

    #[test]
    fn identical_templates_score_high() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(1, 35);
        let s = m.compare(&t, &t).value();
        assert!(s > 20.0, "self-match score = {s}");
    }

    #[test]
    fn unrelated_templates_score_low() {
        let m = PairTableMatcher::default();
        let a = synthetic_template(2, 35);
        let b = synthetic_template(3, 35);
        let s = m.compare(&a, &b).value();
        assert!(s < 8.0, "impostor score = {s}");
    }

    #[test]
    fn score_is_invariant_under_rigid_motion() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(4, 30);
        let moved = t.transformed(&RigidMotion::new(
            Direction::from_radians(0.5),
            Vector::new(4.0, -2.5),
        ));
        let self_score = m.compare(&t, &t).value();
        let moved_score = m.compare(&t, &moved).value();
        assert!(
            (self_score - moved_score).abs() < self_score * 0.15 + 1.0,
            "self {self_score} vs moved {moved_score}"
        );
    }

    #[test]
    fn empty_templates_score_zero() {
        let m = PairTableMatcher::default();
        let e = Template::builder(500.0).build().unwrap();
        let t = synthetic_template(5, 20);
        assert_eq!(m.compare(&e, &t).value(), 0.0);
        assert_eq!(m.compare(&t, &e).value(), 0.0);
        assert_eq!(m.compare(&e, &e).value(), 0.0);
    }

    #[test]
    fn prepared_path_matches_direct_path() {
        let m = PairTableMatcher::default();
        let a = synthetic_template(6, 28);
        let b = synthetic_template(7, 28);
        let pa = m.prepare(&a);
        let pb = m.prepare(&b);
        assert_eq!(m.compare(&a, &b), m.compare_prepared(&pa, &pb));
        assert_eq!(m.compare(&a, &a), m.compare_prepared(&pa, &pa));
    }

    #[test]
    fn partial_overlap_scores_between_self_and_impostor() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(8, 36);
        // Keep only the lower half of the minutiae (simulates a small
        // capture window).
        let half: Vec<Minutia> = t
            .minutiae()
            .iter()
            .filter(|mi| mi.pos.y < 0.0)
            .copied()
            .collect();
        let partial = Template::builder(500.0)
            .capture_window_mm(20.0, 12.0)
            .extend(half)
            .build()
            .unwrap();
        let self_score = m.compare(&t, &t).value();
        let partial_score = m.compare(&t, &partial).value();
        let impostor = m.compare(&t, &synthetic_template(9, 36)).value();
        assert!(
            partial_score < self_score,
            "partial {partial_score} self {self_score}"
        );
        assert!(
            partial_score > impostor,
            "partial {partial_score} impostor {impostor}"
        );
    }

    #[test]
    fn jitter_degrades_score_gracefully() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(10, 32);
        let mut rng = SeedTree::new(99).rng();
        let jittered: Vec<Minutia> = t
            .minutiae()
            .iter()
            .map(|mi| {
                Minutia::new(
                    Point::new(
                        mi.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                        mi.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                    ),
                    mi.direction
                        .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.05)),
                    mi.kind,
                    mi.reliability,
                )
            })
            .collect();
        let jt = Template::builder(500.0)
            .capture_window_mm(20.0, 24.0)
            .extend(jittered)
            .build()
            .unwrap();
        let self_score = m.compare(&t, &t).value();
        let jitter_score = m.compare(&t, &jt).value();
        assert!(
            jitter_score > self_score * 0.5,
            "jitter {jitter_score} self {self_score}"
        );
    }

    #[test]
    fn raw_parts_round_trip_bit_exactly() {
        let m = PairTableMatcher::default();
        let table = m.prepare(&synthetic_template(12, 30));
        let rebuilt = PreparedPairTable::from_raw_parts(
            table.raw_entries().collect(),
            table.raw_directions().collect(),
            table.raw_kinds().collect(),
            table.minutia_count(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), table.len());
        assert_eq!(rebuilt.minutia_count(), table.minutia_count());
        for (a, b) in table.raw_entries().zip(rebuilt.raw_entries()) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.2.to_bits(), b.2.to_bits());
            assert_eq!((a.3, a.4), (b.3, b.4));
        }
        for (a, b) in table.raw_directions().zip(rebuilt.raw_directions()) {
            assert_eq!(a.to_bits(), b.to_bits(), "directions must survive bitwise");
        }
        // Same bytes in, same score bits out — the property fp-store's
        // parity gate rests on.
        let probe = m.prepare(&synthetic_template(13, 30));
        assert_eq!(
            m.compare_prepared(&table, &probe),
            m.compare_prepared(&rebuilt, &probe)
        );
    }

    #[test]
    fn hostile_raw_parts_are_rejected_not_panicked() {
        let dirs = vec![0.0, 1.0, 2.0];
        let kinds = vec![
            MinutiaKind::RidgeEnding,
            MinutiaKind::Bifurcation,
            MinutiaKind::RidgeEnding,
        ];
        let ok =
            |entries| PreparedPairTable::from_raw_parts(entries, dirs.clone(), kinds.clone(), 3);
        assert!(ok(vec![(2.0, 0.0, 0.0, 0, 1)]).is_ok());
        assert!(ok(vec![(2.0, 0.0, 0.0, 0, 1), (2.0, 0.0, 0.0, 0, 2)]).is_ok());
        // Minutia reference out of range (would index kinds/directions OOB).
        assert_eq!(
            ok(vec![(2.0, 0.0, 0.0, 0, 3)]).unwrap_err(),
            RawPartsError::MinutiaOutOfRange {
                at: 0,
                i: 0,
                j: 3,
                minutia_count: 3
            }
        );
        // Distance sort violated (two-pointer walk assumes sorted).
        assert_eq!(
            ok(vec![(3.0, 0.0, 0.0, 0, 1), (2.0, 0.0, 0.0, 1, 0)]).unwrap_err(),
            RawPartsError::OutOfOrder { at: 1 }
        );
        // A distance tie out of (i, j) order: the class-major layout could
        // not rebuild the stored order.
        assert_eq!(
            ok(vec![(2.0, 0.0, 0.0, 0, 2), (2.0, 0.0, 0.0, 0, 1)]).unwrap_err(),
            RawPartsError::OutOfOrder { at: 1 }
        );
        // A duplicated (i, j) entry.
        assert_eq!(
            ok(vec![(2.0, 0.0, 0.0, 0, 1), (2.0, 0.5, 0.5, 0, 1)]).unwrap_err(),
            RawPartsError::OutOfOrder { at: 1 }
        );
        // Non-canonical relative angles.
        assert_eq!(
            ok(vec![(2.0, 0.0, 4.0, 0, 1)]).unwrap_err(),
            RawPartsError::NonCanonicalAngle {
                at: 0,
                radians: 4.0
            }
        );
        assert!(matches!(
            ok(vec![(2.0, f64::NAN, 0.0, 0, 1)]),
            Err(RawPartsError::NonCanonicalAngle { at: 0, .. })
        ));
        // Non-finite distances.
        for d in [f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ok(vec![(d, 0.0, 0.0, 0, 1)]),
                Err(RawPartsError::NonFiniteDistance { at: 0, .. })
            ));
        }
        // Length mismatches.
        assert!(matches!(
            PreparedPairTable::from_raw_parts(Vec::new(), dirs.clone(), kinds.clone(), 4),
            Err(RawPartsError::LengthMismatch {
                what: "directions",
                ..
            })
        ));
        assert!(matches!(
            PreparedPairTable::from_raw_parts(Vec::new(), dirs.clone(), vec![kinds[0]], 3),
            Err(RawPartsError::LengthMismatch { what: "kinds", .. })
        ));
        // Non-canonical direction (4.0 > pi would break bit-exact storage).
        assert!(matches!(
            PreparedPairTable::from_raw_parts(Vec::new(), vec![0.0, 4.0, 0.0], kinds, 3),
            Err(RawPartsError::NonCanonicalDirection { at: 1, .. })
        ));
    }

    /// `certainly_apart` may only reject what the exact tests reject: over
    /// random canonical angles and pairs placed a few ulps either side of
    /// the tolerance, in both orientations.
    #[test]
    fn angle_prefilter_never_rejects_a_close_pair() {
        use std::f64::consts::PI;
        let tol = PairTableConfig::default().angle_tolerance;
        let canonical = |x: f64| Direction::from_radians(x).radians();
        let mut rng = SeedTree::new(41).rng();
        let mut kept = 0;
        for n in 0..400_000 {
            let a = canonical((rng.gen::<f64>() - 0.5) * 7.0);
            let b = match n % 4 {
                0 => canonical((rng.gen::<f64>() - 0.5) * 7.0),
                // Near the direct boundary: a -/+ (tol + tiny).
                1 => canonical(a + (tol + (rng.gen::<f64>() - 0.5) * 1e-12) * sign(&mut rng)),
                // Near the swapped boundary: a + pi -/+ (tol + tiny).
                2 => canonical(a + PI + (tol + (rng.gen::<f64>() - 0.5) * 1e-12) * sign(&mut rng)),
                _ => canonical(a + PI + (rng.gen::<f64>() - 0.5) * 1e-9),
            };
            let direct = PairTableMatcher::angles_close(a, b, tol);
            let swapped = PairTableMatcher::angles_close(a, PairTableMatcher::wrap(b + PI), tol);
            if PairTableMatcher::certainly_apart(a - b, 0.0, tol) {
                assert!(!direct, "direct close pair rejected: a {a:e} b {b:e}");
            }
            if PairTableMatcher::certainly_apart(a - b, PI, tol) {
                assert!(!swapped, "swapped close pair rejected: a {a:e} b {b:e}");
            }
            kept += usize::from(direct || swapped);
        }
        assert!(kept > 100_000, "only {kept} close pairs exercised");
    }

    fn sign(rng: &mut impl Rng) -> f64 {
        if rng.gen::<bool>() {
            1.0
        } else {
            -1.0
        }
    }

    /// Kind mix of an oracle template.
    #[derive(Clone, Copy)]
    enum Kinds {
        Mixed,
        All(MinutiaKind),
    }

    /// A random template for the oracle test: up to `n` minutiae at least
    /// 1.2 mm apart over a `span`-mm square. With `grid`, positions snap to
    /// a 1 mm lattice and directions to multiples of pi/4, so distances
    /// (and relative angles) tie exactly across many pairs.
    fn oracle_template(
        rng: &mut impl Rng,
        n: usize,
        span: f64,
        kinds: Kinds,
        grid: bool,
    ) -> Template {
        let mut minutiae: Vec<Minutia> = Vec::new();
        let mut attempts = 0;
        while minutiae.len() < n && attempts < 20 * n + 20 {
            attempts += 1;
            let (mut x, mut y) = (
                (rng.gen::<f64>() - 0.5) * span,
                (rng.gen::<f64>() - 0.5) * span,
            );
            let mut dir = rng.gen::<f64>() * std::f64::consts::TAU;
            if grid {
                (x, y) = (x.round(), y.round());
                dir = (dir / std::f64::consts::FRAC_PI_4).round() * std::f64::consts::FRAC_PI_4;
            }
            let pos = Point::new(x, y);
            if minutiae.iter().any(|m| m.pos.distance(&pos) < 1.2) {
                continue;
            }
            let kind = match kinds {
                Kinds::All(kind) => kind,
                Kinds::Mixed if rng.gen::<bool>() => MinutiaKind::RidgeEnding,
                Kinds::Mixed => MinutiaKind::Bifurcation,
            };
            minutiae.push(Minutia::new(pos, Direction::from_radians(dir), kind, 1.0));
        }
        Template::builder(500.0)
            .capture_window_mm(span + 2.0, span + 2.0)
            .extend(minutiae)
            .build()
            .unwrap()
    }

    /// A genuine-like recapture of `t`: a rigid motion, positional and
    /// angular jitter, some minutiae lost and a few kinds flipped.
    fn recapture(rng: &mut impl Rng, t: &Template, keep: f64) -> Template {
        let motion = RigidMotion::new(
            Direction::from_radians(rng.gen::<f64>() - 0.5),
            Vector::new(rng.gen::<f64>() * 4.0 - 2.0, rng.gen::<f64>() * 4.0 - 2.0),
        );
        let moved = t.transformed(&motion);
        let mut minutiae = Vec::new();
        for m in moved.minutiae() {
            if rng.gen::<f64>() >= keep {
                continue;
            }
            let kind = match (rng.gen::<f64>() < 0.05, m.kind) {
                (false, kind) => kind,
                (true, MinutiaKind::RidgeEnding) => MinutiaKind::Bifurcation,
                (true, MinutiaKind::Bifurcation) => MinutiaKind::RidgeEnding,
            };
            minutiae.push(Minutia::new(
                Point::new(
                    m.pos.x + fp_core::dist::normal(rng, 0.0, 0.1),
                    m.pos.y + fp_core::dist::normal(rng, 0.0, 0.1),
                ),
                m.direction.rotated(fp_core::dist::normal(rng, 0.0, 0.04)),
                kind,
                m.reliability,
            ));
        }
        Template::builder(500.0)
            .capture_window_mm(60.0, 60.0)
            .extend(minutiae)
            .build()
            .unwrap()
    }

    /// The class-major matcher against the pre-partition oracle over 540
    /// seeded pairs, each under both `require_kind_match` settings: equal
    /// score bits and equal association multisets, plus the stored-order
    /// invariants `raw_entries` promises and its round trip through
    /// `from_raw_parts`.
    #[test]
    fn class_major_path_matches_reference_bit_for_bit() {
        let mut checked = 0;
        let mut nonzero = 0;
        for case in 0..540u64 {
            let mut rng = SeedTree::new(0x5EED_0000 + case).rng();
            let (gallery, probe) = match case % 6 {
                // Unrelated mixed-kind templates (impostor-like).
                0 => {
                    let n = rng.gen_range(20..60);
                    let m = rng.gen_range(20..60);
                    (
                        oracle_template(&mut rng, n, 18.0, Kinds::Mixed, false),
                        oracle_template(&mut rng, m, 18.0, Kinds::Mixed, false),
                    )
                }
                // A recapture of the gallery (genuine-like).
                1 => {
                    let n = rng.gen_range(20..60);
                    let g = oracle_template(&mut rng, n, 18.0, Kinds::Mixed, false);
                    let p = recapture(&mut rng, &g, 0.8);
                    (g, p)
                }
                // Ink-card asymmetry: a large rolled gallery against a
                // small live-scan-sized partial recapture, either way round.
                2 => {
                    let n = rng.gen_range(80..120);
                    let big = oracle_template(&mut rng, n, 34.0, Kinds::Mixed, false);
                    let small = recapture(&mut rng, &big, 0.3);
                    if rng.gen::<bool>() {
                        (big, small)
                    } else {
                        (small, big)
                    }
                }
                // All-one-kind templates (same kind, or opposite kinds).
                3 => {
                    let kg = MinutiaKind::ALL[rng.gen_range(0..2)];
                    let kp = MinutiaKind::ALL[rng.gen_range(0..2)];
                    let n = rng.gen_range(15..45);
                    let m = rng.gen_range(15..45);
                    (
                        oracle_template(&mut rng, n, 16.0, Kinds::All(kg), false),
                        oracle_template(&mut rng, m, 16.0, Kinds::All(kp), false),
                    )
                }
                // Lattice templates: exact distance and angle ties.
                4 => {
                    let n = rng.gen_range(15..50);
                    let g = oracle_template(&mut rng, n, 14.0, Kinds::Mixed, true);
                    let p = if rng.gen::<bool>() {
                        g.clone()
                    } else {
                        let m = rng.gen_range(15..50);
                        oracle_template(&mut rng, m, 14.0, Kinds::Mixed, true)
                    };
                    (g, p)
                }
                // Degenerate sizes: empty, one-entry and tiny tables.
                _ => {
                    let n = rng.gen_range(0..4);
                    let m = rng.gen_range(0..40);
                    let tiny = oracle_template(&mut rng, n, 6.0, Kinds::Mixed, false);
                    let other = oracle_template(&mut rng, m, 16.0, Kinds::Mixed, false);
                    if rng.gen::<bool>() {
                        (tiny, other)
                    } else {
                        (other, tiny)
                    }
                }
            };
            for require_kind_match in [true, false] {
                let m = PairTableMatcher::new(PairTableConfig {
                    require_kind_match,
                    ..PairTableConfig::default()
                });
                let (pg, pp) = (m.prepare(&gallery), m.prepare(&probe));
                for table in [&pg, &pp] {
                    let stored: Vec<_> = table.raw_entries().collect();
                    assert_eq!(stored.len(), table.len());
                    assert!(stored
                        .windows(2)
                        .all(|w| (w[0].0, w[0].3, w[0].4) < (w[1].0, w[1].3, w[1].4)));
                    // Everything `prepare` makes, ties included, loads back.
                    let rebuilt = PreparedPairTable::from_raw_parts(
                        stored.clone(),
                        table.raw_directions().collect(),
                        table.raw_kinds().collect(),
                        table.minutia_count(),
                    )
                    .expect("prepared order is accepted");
                    assert!(rebuilt.raw_entries().eq(stored.iter().copied()));
                }
                let (want, mut want_assocs) = m.score_tables_reference(&pg, &pp);
                let got = m.compare_prepared(&pg, &pp);
                assert_eq!(
                    got.value().to_bits(),
                    want.value().to_bits(),
                    "case {case}, require_kind_match {require_kind_match}: {got:?} vs {want:?}"
                );
                let mut got_assocs: Vec<_> = if pg.is_empty() || pp.is_empty() {
                    Vec::new()
                } else {
                    m.associate(&pg, &pp)
                        .assocs
                        .iter()
                        .map(|a| (a.g_i, a.g_j, a.p_i, a.p_j, a.rotation.to_bits()))
                        .collect()
                };
                got_assocs.sort_unstable();
                want_assocs.sort_unstable();
                assert_eq!(got_assocs, want_assocs, "case {case} associations");
                checked += 1;
                nonzero += usize::from(want.value() > 0.0);
            }
        }
        assert_eq!(checked, 1080);
        assert!(nonzero > 200, "only {nonzero} pairs scored above zero");
    }

    #[test]
    fn table_respects_distance_limits() {
        let m = PairTableMatcher::default();
        let t = synthetic_template(11, 25);
        let table = m.prepare(&t);
        for e in &table.entries {
            assert!(e.d >= m.config().min_pair_distance);
            assert!(e.d <= m.config().max_pair_distance);
        }
    }
}
