//! Phantom execution and the affine address domain: static prediction of
//! the paper's transaction metrics.
//!
//! The paper's argument is that convolution performance is governed by
//! memory-transaction counts, and those counts are a function of the
//! kernels' *address expressions*, not of the tensor data. This module
//! makes that observation executable: a kernel run in **phantom mode**
//! (armed via [`crate::exec::GpuSim::set_phantom`]) executes through the
//! ordinary launch machinery — same block selection, same sampling, same
//! extrapolation, both launch engines — but never reads or writes tensor
//! data. Loads return a configurable canary value, stores are dropped
//! after bounds checking, and every warp access is counted by the pure
//! prefix of the real datapath: a global lane run (contiguous lanes over
//! consecutive elements) by [`crate::memory::phantom_access_span`], its
//! sectors from the span's two ends, any other access by
//! [`crate::memory::phantom_access`], the coalescer. Because the
//! coalescer and the shared-memory bank model are pure functions of
//! addresses, the request/transaction counters of a phantom run are
//! **bit-identical** to a real run whenever addressing is data-independent
//! — which is the structural-determinism property the hazard analyzer
//! already relies on ([`crate::analysis`]). Nothing below the coalescer
//! runs: a phantom launch never builds or probes the L2.
//!
//! ## The affine abstract domain
//!
//! On top of the exact counters, every instrumented access site is
//! classified over a small abstract domain. For each warp-level request
//! the active lanes' values (byte addresses for global/local, word
//! indices for shared) are fitted to the affine form
//!
//! ```text
//! v(lane) = base + stride · lane
//! ```
//!
//! and per-site the fits are joined into a [`SiteForm`] lattice:
//!
//! ```text
//!        DataDependent            (top: dynamic indexing — cannot predict)
//!             |
//!         Irregular               (no single-stride affine fit)
//!             |
//!     Affine { stride }           (every request fits one stride;
//!             |                    base varies per request)
//!          (bottom)               (site never executed)
//! ```
//!
//! For every affine-fitted request a **closed-form prediction** is
//! computed from the coefficients alone — distinct 32 B sectors covered by
//! `{base + stride·l | l active}` for global/local sites, the
//! max-words-per-bank pass count for scalar shared sites — and validated
//! against the simulator's measured transactions for the same request.
//!
//! Recording is O(1) per request: a scan of the kernel's few sites finds
//! the request's slot, the fit needs no 128-bit division (and a lane run,
//! whose form is known, none at all: [`SymBlockCollector::record_affine`]),
//! and the closed forms are cached per site, keyed by what they depend on
//! — base modulo the sector size, stride and mask for sectors; stride and
//! mask alone for passes — which translation does not change. The cached
//! count is still compared with the measured one on every request.
//! The [`SymSiteRecord::mismatches`] counter therefore doubles as a proof
//! obligation: it is zero exactly when the closed form and the hardware
//! model agree, which the `predict` CI gate enforces over the full
//! first-party kernel zoo.
//!
//! `DataDependent` is required (soundness) precisely when an index is
//! computed from *loaded values* or routed through a dynamically indexed
//! private array (`PrivArray::*_dyn` → local memory): the address stream
//! of such a site can differ between data sets, so no static form exists.
//! First-party kernels must never hit it; the `shuffle_dynamic` baseline
//! must (its filter-offset table is indexed per-lane at runtime).
//!
//! Value-data-dependence that is *not* structurally visible is caught by
//! differential phantom execution: [`SymSiteRecord::stream_hash`] digests
//! each site's ordered address stream, and running the kernel under two
//! different canaries must reproduce every hash bit-for-bit — if any
//! address depended on a loaded value, the canary change perturbs it. Each
//! request folds its mask, base and stride when affine and its active-lane
//! values otherwise, so a request's digest depends on its lane values
//! alone, not on which path recorded it. Digests are compared within one
//! build and never persisted.

use crate::analysis::{AccessClass, SiteId};
use crate::lane::{LaneMask, WARP};
use crate::memory::coalescer::LANE_BIT;
use crate::memory::shared::passes_from_form;
use std::collections::BTreeMap;
use std::fmt;

/// Configuration for one phantom (data-free) launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhantomConfig {
    /// The value global loads return: lane `l` observes `canary + l`.
    /// Running the same kernel under two different canaries and comparing
    /// [`SymReport`] stream hashes is the data-independence test.
    pub canary: f32,
}

impl Default for PhantomConfig {
    fn default() -> Self {
        PhantomConfig { canary: 1.0 }
    }
}

/// Join-semilattice of per-site address shapes (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteForm {
    /// Every request fitted `v(lane) = base + stride·lane` with this one
    /// stride (in bytes for global/local, words for shared); `base` may
    /// vary freely across requests.
    Affine {
        /// Per-lane increment of the fitted form.
        stride: i64,
    },
    /// Requests were individually affine with differing strides, or some
    /// request admitted no affine fit at all.
    Irregular,
    /// The site is dynamically indexed: its addresses may depend on data,
    /// so no static prediction exists (the domain's top).
    DataDependent,
}

impl SiteForm {
    /// Lattice join.
    fn join(self, other: SiteForm) -> SiteForm {
        use SiteForm::*;
        match (self, other) {
            (DataDependent, _) | (_, DataDependent) => DataDependent,
            (Irregular, _) | (_, Irregular) => Irregular,
            (Affine { stride: a }, Affine { stride: b }) => {
                if a == b {
                    Affine { stride: a }
                } else {
                    Irregular
                }
            }
        }
    }
}

impl fmt::Display for SiteForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteForm::Affine { stride } => write!(f, "affine(stride={stride})"),
            SiteForm::Irregular => f.write_str("irregular"),
            SiteForm::DataDependent => f.write_str("data-dependent"),
        }
    }
}

/// How to derive the closed-form transaction prediction for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictModel {
    /// Distinct `sector_bytes` sectors covered by 4-byte accesses — the
    /// global/local coalescer model.
    Sectors {
        /// Sector granularity (32 B on the modeled devices).
        sector_bytes: u64,
    },
    /// Max distinct words mapped to one bank — the scalar shared-memory
    /// pass model.
    Banks {
        /// Number of shared-memory banks.
        banks: u32,
    },
    /// No closed form attempted (the vectorized shared load, whose pass
    /// count is a segment property, not the bank model's); the site is
    /// still classified and hashed, but excluded from mismatch accounting.
    Measured,
}

/// Result of fitting one request's active-lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fit {
    /// One active lane: consistent with any stride (does not constrain the
    /// site form); `base` is that lane's value.
    Any { base: i128 },
    /// Exact affine fit over ≥ 2 active lanes.
    Affine { base: i128, stride: i64 },
    /// No affine fit.
    Irregular,
}

impl Fit {
    /// The fit of the request whose active lanes hold `base + stride·l`:
    /// what [`fit_affine`] returns for those values.
    fn of_form(base: i128, stride: i64, mask: LaneMask) -> Fit {
        let m = mask.0;
        if m & m.wrapping_sub(1) == 0 {
            let l0 = m.trailing_zeros() as i128;
            return Fit::Any {
                base: base + stride as i128 * l0,
            };
        }
        Fit::Affine { base, stride }
    }

    /// The coefficients the closed forms are evaluated at: one lane is the
    /// stride-0 form through its value.
    fn coeffs(self) -> Option<(i128, i64)> {
        match self {
            Fit::Any { base } => Some((base, 0)),
            Fit::Affine { base, stride } => Some((base, stride)),
            Fit::Irregular => None,
        }
    }
}

/// Fit `v(lane) = base + stride·lane` over the active lanes, exactly: the
/// line through the first two active lanes (at most one 64-bit division:
/// their difference fits a `u64`), a range check at the last active lane,
/// then one branch-free pass over the warp in wrapping 64-bit arithmetic.
fn fit_affine(vals: &[u64; WARP], mask: LaneMask) -> Fit {
    let m = mask.0;
    if m == 0 {
        return Fit::Irregular; // callers skip empty masks
    }
    let l0 = m.trailing_zeros() as usize;
    let v0 = vals[l0];
    let rest = m & (m - 1);
    if rest == 0 {
        // Single point: report its value as the base.
        return Fit::Any { base: v0 as i128 };
    }
    let l1 = rest.trailing_zeros() as usize;
    let v1 = vals[l1];
    let dl = (l1 - l0) as u64;
    let (mag, neg) = if v1 >= v0 {
        (v1 - v0, false)
    } else {
        (v0 - v1, true)
    };
    // Neighbouring first lanes, the common case, need no division. A
    // stride that is not whole truncates here, and lane l1 then misses the
    // line in the pass below.
    let q = if dl == 1 { mag } else { mag / dl };
    let stride = match (neg, i64::try_from(q)) {
        (false, Ok(s)) => s,
        (true, Ok(s)) => -s,
        (true, Err(_)) if q == 1 << 63 => i64::MIN,
        _ => return Fit::Irregular,
    };
    // The line is monotone and passes through v0, so it stays in range over
    // the active lanes iff it does at the last one; there, lane values equal
    // it exactly iff they do modulo 2^64.
    let top = (31 - m.leading_zeros()) as usize;
    let end = v0 as i128 + stride as i128 * (top - l0) as i128;
    if !(0..=u64::MAX as i128).contains(&end) {
        return Fit::Irregular;
    }
    let step = stride as u64;
    let mut want = v0.wrapping_sub(step.wrapping_mul(l0 as u64));
    let mut off = 0u64;
    for (l, &v) in vals.iter().enumerate() {
        let active = if m & LANE_BIT[l] != 0 { u64::MAX } else { 0 };
        off |= (v ^ want) & active;
        want = want.wrapping_add(step);
    }
    if off != 0 {
        return Fit::Irregular;
    }
    Fit::Affine {
        base: v0 as i128 - stride as i128 * l0 as i128,
        stride,
    }
}

/// Closed-form transaction count from affine coefficients: the number of
/// distinct sectors the 4-byte accesses `{base + stride·l | l ∈ mask}`
/// touch, mirroring [`crate::memory::coalesce`] exactly (including
/// sector-straddling accesses), for a power-of-two `sector_bytes`. The
/// addresses are monotone in the lane, so taken from the lowest up each
/// access adds the sectors it reaches above the highest one counted so
/// far. Moving `base` by a multiple of `sector_bytes` moves every sector
/// alike, so the count depends on `base` only modulo that.
fn sectors_from_form(base: i128, stride: i64, mask: LaneMask, sector_bytes: u64) -> u64 {
    debug_assert!(sector_bytes.is_power_of_two());
    let (align, shift) = (!(sector_bytes as i128 - 1), sector_bytes.trailing_zeros());
    let mut count = 0;
    let mut top: Option<i128> = None;
    for j in 0..WARP {
        let l = if stride < 0 { WARP - 1 - j } else { j };
        if !mask.get(l) {
            continue;
        }
        let a = base + stride as i128 * l as i128;
        let (first, last) = (a & align, (a + 3) & align);
        let from = match top {
            Some(t) if t >= first => t + sector_bytes as i128,
            _ => first,
        };
        if from <= last {
            count += ((last - from) >> shift) as u64 + 1;
            top = Some(last);
        }
    }
    count
}

/// Splitmix64 finalizer — the digest step of the stream hashes.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn hash_combine(h: u64, v: u64) -> u64 {
    mix64(h ^ mix64(v))
}

/// Tags the first word a request folds into a stream digest: an affine
/// request's, or a lane-by-lane one's.
const AFFINE_DIGEST: u64 = 1 << 32;
const LANES_DIGEST: u64 = 2 << 32;

/// Fold an affine request into a stream digest: its mask, base and stride,
/// which fix every active lane's value (a one-lane request is the stride-0
/// form through its value). Each word is spread by its own odd multiplier
/// — a bijection, so changing one word alone always changes the request's
/// word — before one finalizer folds the request into the stream.
fn digest_form(h: u64, mask: LaneMask, base: i128, stride: i64) -> u64 {
    let req = (AFFINE_DIGEST | u64::from(mask.0)).wrapping_mul(0xA076_1D64_78BD_642F)
        ^ (base as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB)
        ^ (stride as u64)
            .wrapping_mul(0x8EBC_6AF0_9C88_C6E3)
            .rotate_left(32);
    mix64(h ^ req)
}

/// Fold an irregular request into a stream digest: its mask, then each
/// active lane's value in lane order.
fn digest_lanes(h: u64, mask: LaneMask, vals: &[u64; WARP]) -> u64 {
    let mut h = hash_combine(h, LANES_DIGEST | u64::from(mask.0));
    for l in mask.lanes() {
        h = hash_combine(h, vals[l]);
    }
    h
}

/// Aggregate symbolic state for one `(site, access class)` pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymSiteAgg {
    /// Warp-level requests observed.
    pub requests: u64,
    /// Total active lanes across requests.
    pub active_lanes: u64,
    /// Measured transactions (sectors for global/local, passes for shared)
    /// — what the simulator's counters record.
    pub transactions: u64,
    /// Closed-form predicted transactions, over affine-fitted requests.
    pub predicted: u64,
    /// Requests for which a closed-form prediction was computed.
    pub predicted_requests: u64,
    /// Predicted requests whose closed form disagreed with the measured
    /// count. Must be zero: a nonzero value means the abstract domain and
    /// the hardware model diverged.
    pub mismatches: u64,
    /// Worst single-request transaction/pass count.
    pub max_degree: u64,
    /// Joined site form; `None` until the first request.
    pub form: Option<SiteForm>,
    /// Requests routed through a dynamically indexed accessor — the
    /// structural data-dependence witness.
    pub dynamic_requests: u64,
    /// Order-dependent digest of the site's address stream, merged
    /// block-linearly. Each request folds its mask, base and stride when
    /// affine and its active-lane values otherwise, so the digest is a
    /// function of the lane values alone. Equal hashes across two phantom
    /// runs with different canaries certify the stream is
    /// data-independent; digests are compared within one build and never
    /// persisted.
    pub stream_hash: u64,
}

impl SymSiteAgg {
    fn absorb(&mut self, other: &SymSiteAgg) {
        self.requests += other.requests;
        self.active_lanes += other.active_lanes;
        self.transactions += other.transactions;
        self.predicted += other.predicted;
        self.predicted_requests += other.predicted_requests;
        self.mismatches += other.mismatches;
        self.max_degree = self.max_degree.max(other.max_degree);
        self.form = match (self.form, other.form) {
            (Some(a), Some(b)) => Some(a.join(b)),
            (a, b) => a.or(b),
        };
        self.dynamic_requests += other.dynamic_requests;
        self.stream_hash = hash_combine(self.stream_hash, other.stream_hash);
    }
}

/// Entries of a site's closed-form cache.
const FORM_CACHE: usize = 16;

/// One cached closed-form count: the key it depends on — mask, stride and
/// base modulo the sector size (the pass count does not depend on the base
/// at all: its residue is 0) — and the count. A zero mask is empty (empty
/// requests are never recorded).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct FormEntry {
    mask: u32,
    residue: u64,
    stride: i64,
    count: u64,
}

/// A site's closed-form counts, direct-mapped by key, for one prediction
/// model. The closed forms are invariant under translation by a whole
/// number of sectors (the pass count under any translation), so the
/// requests of a loop — the same mask and stride at bases a whole number
/// of sectors apart — pay for one evaluation.
#[derive(Debug, Clone, Copy)]
struct FormCache {
    model: PredictModel,
    entries: [FormEntry; FORM_CACHE],
}

impl FormCache {
    fn new(model: PredictModel) -> Self {
        FormCache {
            model,
            entries: [FormEntry::default(); FORM_CACHE],
        }
    }

    /// The closed-form count of the affine request `base + stride·l` over
    /// `mask` under `model`, or `None` for [`PredictModel::Measured`].
    fn count(
        &mut self,
        model: PredictModel,
        base: i128,
        stride: i64,
        mask: LaneMask,
    ) -> Option<u64> {
        let residue = match model {
            PredictModel::Sectors { sector_bytes } => base as u64 & (sector_bytes - 1),
            PredictModel::Banks { .. } => 0,
            PredictModel::Measured => return None,
        };
        if self.model != model {
            *self = FormCache::new(model);
        }
        let key = FormEntry {
            mask: mask.0,
            residue,
            stride,
            count: 0,
        };
        let h = (key.residue ^ (key.stride as u64).rotate_left(17) ^ u64::from(key.mask) << 5)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let e = &mut self.entries[(h >> 60) as usize];
        if (e.mask, e.residue, e.stride) != (key.mask, key.residue, key.stride) {
            let count = match model {
                PredictModel::Sectors { sector_bytes } => {
                    sectors_from_form(base, stride, mask, sector_bytes)
                }
                PredictModel::Banks { banks } => passes_from_form(stride, mask, banks),
                PredictModel::Measured => unreachable!("no closed form is cached for it"),
            };
            *e = FormEntry { count, ..key };
        }
        Some(e.count)
    }
}

/// One `(site, class)`'s aggregate and closed-form cache.
#[derive(Debug, Clone)]
struct SiteSlot {
    site: SiteId,
    class: AccessClass,
    agg: SymSiteAgg,
    forms: FormCache,
}

impl SiteSlot {
    fn new(site: SiteId, class: AccessClass) -> Self {
        SiteSlot {
            site,
            class,
            agg: SymSiteAgg::default(),
            forms: FormCache::new(PredictModel::Measured),
        }
    }

    /// `true` for the slot of `(site, class)`: the derived equality, with
    /// the common case — the same `&'static str` file — decided without
    /// comparing the path.
    #[inline]
    fn is(&self, site: &SiteId, class: AccessClass) -> bool {
        self.class == class
            && self.site.line == site.line
            && self.site.column == site.column
            && (std::ptr::eq(self.site.file, site.file) || self.site.file == site.file)
    }

    /// Fold one non-empty request, fitted as `fit`, into the aggregate:
    /// counters, the site form, and the closed-form prediction checked
    /// against `measured`. The stream digest is folded by the caller.
    fn observe(
        &mut self,
        fit: Fit,
        mask: LaneMask,
        measured: u64,
        model: PredictModel,
        dynamic: bool,
    ) {
        let agg = &mut self.agg;
        agg.requests += 1;
        agg.active_lanes += u64::from(mask.count());
        agg.transactions += measured;
        agg.max_degree = agg.max_degree.max(measured);
        if dynamic {
            agg.dynamic_requests += 1;
        }

        let req_form = if dynamic {
            Some(SiteForm::DataDependent)
        } else {
            match fit {
                Fit::Any { .. } => None, // unconstrained: no form update
                Fit::Affine { stride, .. } => Some(SiteForm::Affine { stride }),
                Fit::Irregular => Some(SiteForm::Irregular),
            }
        };
        if let Some(rf) = req_form {
            agg.form = Some(match agg.form {
                Some(f) => f.join(rf),
                None => rf,
            });
        }

        // Closed-form prediction from the fitted coefficients, checked on
        // every request. Dynamic sites are top: no prediction is attempted
        // even when one request happens to fit.
        if dynamic {
            return;
        }
        let Some((base, stride)) = fit.coeffs() else {
            return;
        };
        if let Some(p) = self.forms.count(model, base, stride, mask) {
            agg.predicted += p;
            agg.predicted_requests += 1;
            if p != measured {
                agg.mismatches += 1;
            }
        }
    }
}

/// Per-block (then launch-wide, via block-linear merge) collector of
/// symbolic site state. Mirrors the analyzer's collector shape so both
/// launch engines aggregate identically.
///
/// Recording is O(1) per request and allocates only when a site is first
/// seen: a request finds its site's slot by a scan of a kernel's few
/// sites, and the closed forms come from the slot's cache.
#[derive(Debug, Clone, Default)]
pub struct SymBlockCollector {
    /// One slot per `(site, class)`, in first-seen order; reports sort them.
    slots: Vec<SiteSlot>,
    blocks: u64,
}

impl SymBlockCollector {
    /// Fresh collector for one block.
    pub fn for_block() -> Self {
        SymBlockCollector {
            blocks: 1,
            ..SymBlockCollector::default()
        }
    }

    /// The slot of `(site, class)`, created empty on first sight.
    #[inline(always)]
    fn slot(&mut self, site: SiteId, class: AccessClass) -> &mut SiteSlot {
        let i = match self.slots.iter().position(|s| s.is(&site, class)) {
            Some(i) => i,
            None => {
                self.slots.push(SiteSlot::new(site, class));
                self.slots.len() - 1
            }
        };
        &mut self.slots[i]
    }

    /// Record one warp-level request at `site`: fit the active-lane values
    /// to the affine domain, compute the closed-form prediction under
    /// `model`, validate it against the `measured` transaction count, and
    /// fold everything into the site aggregate.
    #[allow(clippy::too_many_arguments)] // mirrors the datapath observation
    pub fn record(
        &mut self,
        site: SiteId,
        class: AccessClass,
        vals: &[u64; WARP],
        mask: LaneMask,
        measured: u64,
        model: PredictModel,
        dynamic: bool,
    ) {
        if mask.is_empty() {
            return;
        }
        let fit = fit_affine(vals, mask);
        let slot = self.slot(site, class);
        slot.observe(fit, mask, measured, model, dynamic);
        let h = slot.agg.stream_hash;
        slot.agg.stream_hash = match fit.coeffs() {
            Some((base, stride)) => digest_form(h, mask, base, stride),
            None => digest_lanes(h, mask, vals),
        };
    }

    /// [`SymBlockCollector::record`] for a request whose active lanes are
    /// known to hold `base + stride·lane` — a lane run's addresses, say —
    /// without looking at the lanes: the same aggregate, prediction and
    /// digest as recording those values, in O(1).
    #[allow(clippy::too_many_arguments)] // mirrors `record`
    pub fn record_affine(
        &mut self,
        site: SiteId,
        class: AccessClass,
        base: i128,
        stride: i64,
        mask: LaneMask,
        measured: u64,
        model: PredictModel,
    ) {
        if mask.is_empty() {
            return;
        }
        let fit = Fit::of_form(base, stride, mask);
        let slot = self.slot(site, class);
        slot.observe(fit, mask, measured, model, false);
        let (base, stride) = fit.coeffs().expect("affine");
        slot.agg.stream_hash = digest_form(slot.agg.stream_hash, mask, base, stride);
    }

    /// Merge another block's collector in block-linear order.
    pub fn merge(&mut self, other: &SymBlockCollector) {
        for s in other.observed() {
            self.slot(s.site, s.class).agg.absorb(&s.agg);
        }
        self.blocks += other.blocks;
    }

    /// Empty the aggregates for the next block, keeping the sites and their
    /// closed-form caches: a collector reused block after block (merged
    /// into the launch's after each) skips the per-block slot allocations
    /// and starts with warm caches.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.agg = SymSiteAgg::default();
        }
    }

    /// The slots with requests since the last [`SymBlockCollector::clear`].
    fn observed(&self) -> impl Iterator<Item = &SiteSlot> {
        self.slots.iter().filter(|s| s.agg.requests > 0)
    }

    /// Number of distinct instrumented sites observed.
    pub fn site_count(&self) -> usize {
        self.observed().count()
    }

    /// Freeze into a report.
    pub fn into_report(mut self) -> SymReport {
        self.slots.retain(|s| s.agg.requests > 0);
        self.slots.sort_unstable_by_key(|s| (s.site, s.class));
        let sites = self
            .slots
            .into_iter()
            .map(
                |SiteSlot {
                     site, class, agg, ..
                 }| SymSiteRecord {
                    site,
                    class,
                    requests: agg.requests,
                    active_lanes: agg.active_lanes,
                    transactions: agg.transactions,
                    predicted: agg.predicted,
                    predicted_requests: agg.predicted_requests,
                    mismatches: agg.mismatches,
                    max_degree: agg.max_degree,
                    form: agg.form.unwrap_or(SiteForm::Affine { stride: 0 }),
                    data_dependent: agg.dynamic_requests > 0,
                    stream_hash: agg.stream_hash,
                },
            )
            .collect();
        SymReport {
            sites,
            blocks_analyzed: self.blocks,
        }
    }
}

/// One site's symbolic verdict in a [`SymReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SymSiteRecord {
    /// Source location of the instrumented instruction.
    pub site: SiteId,
    /// Instruction class.
    pub class: AccessClass,
    /// Warp-level requests observed.
    pub requests: u64,
    /// Total active lanes across requests.
    pub active_lanes: u64,
    /// Measured transactions/passes.
    pub transactions: u64,
    /// Closed-form predicted transactions over affine-fitted requests.
    pub predicted: u64,
    /// Requests with a closed-form prediction.
    pub predicted_requests: u64,
    /// Closed-form disagreements (must be zero).
    pub mismatches: u64,
    /// Worst single-request degree.
    pub max_degree: u64,
    /// Joined abstract form of the site's addresses.
    pub form: SiteForm,
    /// `true` when any request went through a dynamic accessor (top).
    pub data_dependent: bool,
    /// Digest of the site's ordered address stream.
    pub stream_hash: u64,
}

impl SymSiteRecord {
    /// Average transactions per request at this site.
    pub fn transactions_per_request(&self) -> f64 {
        self.transactions as f64 / self.requests as f64
    }
}

/// The symbolic verdict of one phantom launch (or an aggregate of a run's
/// launches), drained via [`crate::exec::GpuSim::take_sym_report`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SymReport {
    /// Per-site records, ordered by `(site, class)`.
    pub sites: Vec<SymSiteRecord>,
    /// Blocks that contributed (post-sampling, pre-extrapolation).
    pub blocks_analyzed: u64,
}

impl SymReport {
    /// `true` when every closed-form prediction matched the measured
    /// count — the property the `predict` CI gate enforces.
    pub fn is_exact(&self) -> bool {
        self.sites.iter().all(|s| s.mismatches == 0)
    }

    /// Sites whose closed form disagreed with the simulator.
    pub fn mispredicted_sites(&self) -> Vec<&SymSiteRecord> {
        self.sites.iter().filter(|s| s.mismatches > 0).collect()
    }

    /// Sites classified top (dynamically indexed / data-dependent).
    pub fn data_dependent_sites(&self) -> Vec<&SymSiteRecord> {
        self.sites
            .iter()
            .filter(|s| s.data_dependent || s.form == SiteForm::DataDependent)
            .collect()
    }

    /// Merge another launch's report (for multi-launch runs).
    pub fn absorb(&mut self, other: &SymReport) {
        // Rebuild through the collector to reuse the join logic.
        let mut map: BTreeMap<(SiteId, AccessClass), SymSiteRecord> =
            self.sites.iter().map(|s| ((s.site, s.class), *s)).collect();
        for s in &other.sites {
            match map.get_mut(&(s.site, s.class)) {
                Some(t) => {
                    t.requests += s.requests;
                    t.active_lanes += s.active_lanes;
                    t.transactions += s.transactions;
                    t.predicted += s.predicted;
                    t.predicted_requests += s.predicted_requests;
                    t.mismatches += s.mismatches;
                    t.max_degree = t.max_degree.max(s.max_degree);
                    t.form = t.form.join(s.form);
                    t.data_dependent |= s.data_dependent;
                    t.stream_hash = hash_combine(t.stream_hash, s.stream_hash);
                }
                None => {
                    map.insert((s.site, s.class), *s);
                }
            }
        }
        self.sites = map.into_values().collect();
        self.blocks_analyzed += other.blocks_analyzed;
    }

    /// Per-site stream hashes keyed by `(site, class)` — the
    /// data-independence comparison set.
    pub fn stream_hashes(&self) -> BTreeMap<(SiteId, AccessClass), u64> {
        self.sites
            .iter()
            .map(|s| ((s.site, s.class), s.stream_hash))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::coalesce;

    fn site(line: u32) -> SiteId {
        SiteId {
            file: "sym_test.rs",
            line,
            column: 1,
        }
    }

    fn vals(f: impl Fn(usize) -> u64) -> [u64; WARP] {
        std::array::from_fn(f)
    }

    #[test]
    fn affine_fit_classifies_common_patterns() {
        let contiguous = vals(|l| 0x1000 + l as u64 * 4);
        assert_eq!(
            fit_affine(&contiguous, LaneMask::ALL),
            Fit::Affine {
                base: 0x1000,
                stride: 4
            }
        );
        let broadcast = vals(|_| 0x2000);
        assert_eq!(
            fit_affine(&broadcast, LaneMask::ALL),
            Fit::Affine {
                base: 0x2000,
                stride: 0
            }
        );
        let scattered = vals(|l| 0x3000 + ((l * 7) % 13) as u64 * 4);
        assert_eq!(fit_affine(&scattered, LaneMask::ALL), Fit::Irregular);
        // a masked sub-warp still fits, with base referenced to lane 0
        let masked = vals(|l| 0x4000 + l as u64 * 8);
        assert_eq!(
            fit_affine(&masked, LaneMask::from_fn(|l| (4..20).contains(&l))),
            Fit::Affine {
                base: 0x4000,
                stride: 8
            }
        );
        assert_eq!(
            fit_affine(&masked, LaneMask::first(1)),
            Fit::Any { base: 0x4000 }
        );
    }

    #[test]
    fn closed_form_sectors_match_coalescer_exhaustively() {
        // The closed form must agree with coalesce() on every pattern it
        // claims to predict: strides crossing/straddling sector boundaries,
        // negative strides, sparse masks, misaligned bases.
        let sb = 32u64;
        for &stride in &[-128i64, -36, -4, 0, 1, 3, 4, 7, 8, 30, 32, 36, 128] {
            for &base in &[0x1000u64, 0x101c, 0x1003, 0x10000] {
                for mask in [
                    LaneMask::ALL,
                    LaneMask::first(8),
                    LaneMask::from_fn(|l| l % 3 == 0),
                    LaneMask::from_fn(|l| l == 31),
                ] {
                    let addrs = vals(|l| (base as i64 + stride * l as i64) as u64);
                    let measured = coalesce(&addrs, mask, 4, sb).transactions();
                    let predicted = sectors_from_form(base as i128, stride, mask, sb);
                    assert_eq!(
                        predicted, measured,
                        "stride {stride} base {base:#x} mask {mask:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn closed_form_passes_match_shared_memory_model() {
        use crate::memory::SharedMem;
        // Against the general count, which never takes the closed form.
        // Every bank count from 1 to 257 (more than 32 banks used to
        // overflow a 32-entry table), with named and random bases, strides
        // and masks.
        let mut rng = 0x5EED_u64;
        let mut next = move || {
            rng = mix64(rng);
            rng
        };
        for banks in 1..=257u32 {
            let smem = SharedMem::new(1 << 16, banks as usize);
            let mut cases = vec![(0u32, 1i64, LaneMask::ALL), (40, 1, LaneMask::ALL)];
            for &stride in &[0i64, 1, 2, 4, 8, 16, 32, 33] {
                for mask in [
                    LaneMask::ALL,
                    LaneMask::first(7),
                    LaneMask::from_fn(|l| l % 2 == 1),
                ] {
                    cases.push((0, stride, mask));
                }
            }
            for _ in 0..8 {
                let r = next();
                let mask = LaneMask(if r % 3 == 0 {
                    u32::MAX
                } else {
                    (r >> 32) as u32
                });
                cases.push(((r >> 8) as u32 % 4096, (r >> 20) as i64 % 80, mask));
            }
            for (base, stride, mask) in cases {
                let idx = crate::lane::VU::from_fn(|l| (base as i64 + stride * l as i64) as u32);
                let measured = smem.general_passes(&idx, mask).max(1);
                let predicted = passes_from_form(stride, mask, banks);
                assert_eq!(
                    predicted, measured,
                    "banks {banks} base {base} stride {stride} mask {mask:?}"
                );
            }
        }
    }

    /// The fit as it was computed in 128-bit arithmetic, kept as the
    /// oracle of [`fit_affine`].
    fn wide_fit(vals: &[u64; WARP], mask: LaneMask) -> Fit {
        let mut lanes = mask.lanes();
        let Some(l0) = lanes.next() else {
            return Fit::Irregular;
        };
        let v0 = vals[l0] as i128;
        let Some(l1) = lanes.next() else {
            return Fit::Any { base: v0 };
        };
        let (dv, dl) = (vals[l1] as i128 - v0, (l1 - l0) as i128);
        if dv % dl != 0 {
            return Fit::Irregular;
        }
        let stride = dv / dl;
        if stride > i64::MAX as i128 || stride < i64::MIN as i128 {
            return Fit::Irregular;
        }
        let base = v0 - stride * l0 as i128;
        if mask
            .lanes()
            .any(|l| vals[l] as i128 != base + stride * l as i128)
        {
            return Fit::Irregular;
        }
        Fit::Affine {
            base,
            stride: stride as i64,
        }
    }

    /// Random requests: affine lines (some wrapping out of range, some
    /// with one lane knocked off) and raw lanes, under random masks.
    fn random_requests(seed: u64, n: usize) -> Vec<([u64; WARP], LaneMask)> {
        let mut rng = seed;
        let mut next = move || {
            rng = mix64(rng);
            rng
        };
        (0..n)
            .map(|_| {
                let r = next();
                let mask = LaneMask(match r % 4 {
                    0 => u32::MAX,
                    1 => (u32::MAX >> ((r >> 8) % 32)) << ((r >> 16) % 32),
                    _ => next() as u32,
                });
                let base = match (r >> 24) % 4 {
                    0 => next(),
                    1 => u64::MAX - next() % 4096,
                    2 => next() % 4096,
                    _ => next() >> 20,
                };
                let stride = match (r >> 32) % 5 {
                    0 => next() as i64,
                    1 => i64::MIN,
                    2 => (next() % 512) as i64 - 256,
                    3 => 4,
                    _ => (next() >> 34) as i64 * if r & 1 == 0 { 1 } else { -1 },
                };
                let mut vals = vals(|l| base.wrapping_add((stride as u64).wrapping_mul(l as u64)));
                match (r >> 40) % 4 {
                    0 => vals = vals.map(|_| next()),
                    1 => vals[(r >> 48) as usize % WARP] ^= 1 << ((r >> 56) % 64),
                    _ => {}
                }
                (vals, mask)
            })
            .collect()
    }

    #[test]
    fn fits_match_the_wide_fit() {
        for (vals, mask) in random_requests(0xF17, 20_000) {
            assert_eq!(
                fit_affine(&vals, mask),
                wide_fit(&vals, mask),
                "{vals:?} {mask:?}"
            );
            // Shared-memory word indices, widened from 32 bits.
            let words = vals.map(|v| u64::from(v as u32));
            assert_eq!(
                fit_affine(&words, mask),
                wide_fit(&words, mask),
                "{words:?} {mask:?}"
            );
        }
    }

    /// One request's report entry — counters, form, prediction and stream
    /// digest — is the same whichever entry point records it.
    #[test]
    fn a_request_records_alike_on_every_path() {
        let model = PredictModel::Sectors { sector_bytes: 32 };
        let report = |f: &dyn Fn(&mut SymBlockCollector)| {
            let mut c = SymBlockCollector::for_block();
            f(&mut c);
            f(&mut c);
            c.into_report()
        };
        for (vals, mask) in random_requests(0xD16E57, 5_000) {
            if mask.is_empty() {
                continue;
            }
            let by_lanes = report(&|c| {
                c.record(
                    site(1),
                    AccessClass::GlobalLoad,
                    &vals,
                    mask,
                    3,
                    model,
                    false,
                )
            });
            if let Some((base, stride)) = fit_affine(&vals, mask).coeffs() {
                let by_form = report(&|c| {
                    c.record_affine(
                        site(1),
                        AccessClass::GlobalLoad,
                        base,
                        stride,
                        mask,
                        3,
                        model,
                    )
                });
                assert_eq!(by_form, by_lanes, "{vals:?} {mask:?}");
            }
        }
        // A lane run as the span path records it: stride 4 from lane `lo`,
        // a one-lane run included.
        for (lo, n) in [(0, 32), (3, 20), (31, 1), (0, 1)] {
            let first = 0x4000_0010u64;
            let mask = LaneMask::from_fn(|l| (lo..lo + n).contains(&l));
            let run = vals(|l| (first + 4 * l as u64).wrapping_sub(4 * lo as u64));
            let by_lanes = report(&|c| {
                c.record(
                    site(2),
                    AccessClass::GlobalStore,
                    &run,
                    mask,
                    2,
                    model,
                    false,
                )
            });
            let base = i128::from(first) - 4 * lo as i128;
            let by_form = report(&|c| {
                c.record_affine(site(2), AccessClass::GlobalStore, base, 4, mask, 2, model)
            });
            assert_eq!(by_form, by_lanes, "lo {lo} n {n}");
        }
    }

    /// Every site keeps its own slot however many there are.
    #[test]
    fn many_sites_keep_their_own_slots() {
        let model = PredictModel::Sectors { sector_bytes: 32 };
        let addrs = vals(|l| 0x1000 + l as u64 * 4);
        let mut c = SymBlockCollector::for_block();
        for round in 1..=3u64 {
            for line in 0..100 {
                for class in [AccessClass::GlobalLoad, AccessClass::GlobalStore] {
                    if !(line as u64 + round).is_multiple_of(3) {
                        c.record(site(line), class, &addrs, LaneMask::ALL, 4, model, false);
                    }
                }
            }
        }
        let rep = c.into_report();
        assert_eq!(rep.sites.len(), 200);
        for r in &rep.sites {
            let want = (1..=3u64)
                .filter(|round| !(r.site.line as u64 + round).is_multiple_of(3))
                .count();
            assert_eq!(r.requests, want as u64, "{r:?}");
        }
    }

    /// The digest tells requests apart by every word that fixes their lane
    /// values — mask, base, stride, or the lanes of an irregular one — and
    /// by their order.
    #[test]
    fn digests_tell_requests_and_their_order_apart() {
        let model = PredictModel::Measured;
        let digest = |reqs: &[(i128, i64, u32)]| {
            let mut c = SymBlockCollector::for_block();
            for &(base, stride, mask) in reqs {
                let vals = vals(|l| (base + stride as i128 * l as i128) as u64);
                c.record(
                    site(5),
                    AccessClass::GlobalLoad,
                    &vals,
                    LaneMask(mask),
                    1,
                    model,
                    false,
                );
            }
            c.into_report().sites[0].stream_hash
        };
        let one = [
            (0x1000, 4, u32::MAX),
            (0x1004, 4, u32::MAX),
            (0x1000, 8, u32::MAX),
            (0x1000, -4, u32::MAX),
            (0x1000, 4, 0xFFFF),
            (0x1000, 0, u32::MAX),
            (0x1000, 0, 1),
        ];
        let mut seen: Vec<u64> = one.iter().map(|r| digest(&[*r])).collect();
        let mut irregular = SymBlockCollector::for_block();
        let scattered = vals(|l| 0x1000 + ((l * 7) % 13) as u64 * 4);
        irregular.record(
            site(5),
            AccessClass::GlobalLoad,
            &scattered,
            LaneMask::ALL,
            1,
            model,
            false,
        );
        seen.push(irregular.into_report().sites[0].stream_hash);
        seen.push(digest(&[one[0], one[1]]));
        seen.push(digest(&[one[1], one[0]]));
        let distinct: std::collections::BTreeSet<u64> = seen.iter().copied().collect();
        assert_eq!(distinct.len(), seen.len(), "{seen:x?}");
    }

    /// The cached closed forms equal fresh ones: a site sees the same few
    /// strides and masks at many bases, every residue modulo the sector
    /// included, and every prediction must still match the coalescer.
    #[test]
    fn cached_closed_forms_match_the_coalescer_at_every_base() {
        let model = PredictModel::Sectors { sector_bytes: 32 };
        let mut c = SymBlockCollector::for_block();
        let mut measured_total = 0;
        for (i, (stride, mask)) in [
            (4i64, LaneMask::ALL),
            (4, LaneMask(0x00FF_FF00)),
            (12, LaneMask(0xF0F0_F0F1)),
            (-36, LaneMask::first(9)),
            (1, LaneMask::ALL),
        ]
        .into_iter()
        .cycle()
        .take(1000)
        .enumerate()
        {
            let base = 0x1_0000 + (i as i64 * 7) % 4096;
            let addrs = vals(|l| (base + stride * l as i64) as u64);
            let measured = coalesce(&addrs, mask, 4, 32).transactions();
            measured_total += measured;
            c.record(
                site(3),
                AccessClass::GlobalLoad,
                &addrs,
                mask,
                measured,
                model,
                false,
            );
        }
        let r = &c.into_report().sites[0];
        assert_eq!((r.mismatches, r.predicted_requests), (0, 1000));
        assert_eq!(r.predicted, measured_total);
    }

    #[test]
    fn closed_form_sectors_match_coalescer_on_random_forms() {
        let mut rng = 0xC0A1_u64;
        let mut next = move || {
            rng = mix64(rng);
            rng
        };
        for _ in 0..20_000 {
            let r = next();
            let base = (1u64 << 40) + next() % (1 << 20);
            let stride = match r % 3 {
                0 => (next() % 512) as i64 - 256,
                1 => (next() % (1 << 30)) as i64 - (1 << 29),
                _ => {
                    [0, 1, 2, 3, 4, 8, 28, 29, 32, 36][(next() % 10) as usize]
                        * if r & 8 == 0 { 1 } else { -1 }
                }
            };
            let mask = LaneMask(match r >> 40 & 1 {
                // A run of lanes, as lane runs and boundary masks are.
                0 => (u32::MAX >> ((r >> 48) % 32)) << ((r >> 56) % 32),
                _ => next() as u32 | (1 << ((r >> 32) % 32)),
            });
            if mask.is_empty() {
                continue;
            }
            let addrs = vals(|l| (base as i64 + stride * l as i64) as u64);
            let measured = coalesce(&addrs, mask, 4, 32).transactions();
            assert_eq!(
                sectors_from_form(base as i128, stride, mask, 32),
                measured,
                "base {base:#x} stride {stride} mask {mask:?}"
            );
        }
    }

    #[test]
    fn site_form_join_is_a_lattice() {
        use SiteForm::*;
        let a4 = Affine { stride: 4 };
        let a8 = Affine { stride: 8 };
        assert_eq!(a4.join(a4), a4);
        assert_eq!(a4.join(a8), Irregular);
        assert_eq!(a4.join(Irregular), Irregular);
        assert_eq!(Irregular.join(DataDependent), DataDependent);
        assert_eq!(DataDependent.join(a4), DataDependent);
    }

    #[test]
    fn collector_validates_and_merges_block_linearly() {
        let s = site(10);
        let addrs = vals(|l| 0x1000 + l as u64 * 4);
        let measured = coalesce(&addrs, LaneMask::ALL, 4, 32).transactions();
        let model = PredictModel::Sectors { sector_bytes: 32 };

        let mut b0 = SymBlockCollector::for_block();
        b0.record(
            s,
            AccessClass::GlobalLoad,
            &addrs,
            LaneMask::ALL,
            measured,
            model,
            false,
        );
        let mut b1 = SymBlockCollector::for_block();
        b1.record(
            s,
            AccessClass::GlobalLoad,
            &addrs,
            LaneMask::ALL,
            measured,
            model,
            false,
        );

        let mut launch = SymBlockCollector::default();
        launch.merge(&b0);
        launch.merge(&b1);
        let rep = launch.into_report();
        assert_eq!(rep.blocks_analyzed, 2);
        assert_eq!(rep.sites.len(), 1);
        let r = &rep.sites[0];
        assert_eq!(r.requests, 2);
        assert_eq!(r.transactions, 8);
        assert_eq!(r.predicted, 8);
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.form, SiteForm::Affine { stride: 4 });
        assert!(rep.is_exact());

        // merge order changes the stream hash (it is a stream digest)
        let mut other_order = SymBlockCollector::default();
        let mut b1b = SymBlockCollector::for_block();
        b1b.record(
            s,
            AccessClass::GlobalLoad,
            &vals(|l| 0x9000 + l as u64 * 4),
            LaneMask::ALL,
            4,
            model,
            false,
        );
        other_order.merge(&b1b);
        other_order.merge(&b0);
        let rep2 = other_order.into_report();
        assert_ne!(rep.sites[0].stream_hash, rep2.sites[0].stream_hash);
    }

    #[test]
    fn dynamic_requests_force_top_and_suppress_prediction() {
        let mut c = SymBlockCollector::for_block();
        let addrs = vals(|l| 0x1000 + l as u64 * 4);
        c.record(
            site(20),
            AccessClass::LocalLoad,
            &addrs,
            LaneMask::ALL,
            4,
            PredictModel::Sectors { sector_bytes: 32 },
            true,
        );
        let rep = c.into_report();
        let r = &rep.sites[0];
        assert_eq!(r.form, SiteForm::DataDependent);
        assert!(r.data_dependent);
        assert_eq!(r.predicted_requests, 0, "top sites are never predicted");
        assert_eq!(rep.data_dependent_sites().len(), 1);
        assert!(rep.is_exact(), "top sites carry no mismatch obligation");
    }

    #[test]
    fn irregular_requests_are_counted_but_not_predicted() {
        let mut c = SymBlockCollector::for_block();
        let addrs = vals(|l| 0x3000 + ((l * 7) % 13) as u64 * 4);
        let measured = coalesce(&addrs, LaneMask::ALL, 4, 32).transactions();
        c.record(
            site(30),
            AccessClass::GlobalLoad,
            &addrs,
            LaneMask::ALL,
            measured,
            PredictModel::Sectors { sector_bytes: 32 },
            false,
        );
        let rep = c.into_report();
        let r = &rep.sites[0];
        assert_eq!(r.form, SiteForm::Irregular);
        assert_eq!(r.predicted_requests, 0);
        assert_eq!(r.transactions, measured);
    }

    #[test]
    fn report_absorb_joins_forms_and_sums_counters() {
        let mk = |stride: i64| {
            let mut c = SymBlockCollector::for_block();
            let addrs = vals(|l| (0x1000 + stride * l as i64) as u64);
            let measured = coalesce(&addrs, LaneMask::ALL, 4, 32).transactions();
            c.record(
                site(40),
                AccessClass::GlobalStore,
                &addrs,
                LaneMask::ALL,
                measured,
                PredictModel::Sectors { sector_bytes: 32 },
                false,
            );
            c.into_report()
        };
        let mut a = mk(4);
        let b = mk(8);
        a.absorb(&b);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.sites[0].requests, 2);
        assert_eq!(a.sites[0].form, SiteForm::Irregular, "joined strides");
        assert_eq!(a.blocks_analyzed, 2);
    }
}
