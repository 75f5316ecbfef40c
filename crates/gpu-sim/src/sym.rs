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
//! after bounds checking, and every warp access is routed through
//! [`crate::memory::phantom_access`], the pure coalescing prefix of the
//! real datapath. Because the coalescer and the shared-memory bank model
//! are pure functions of addresses, the request/transaction counters of a
//! phantom run are **bit-identical** to a real run whenever addressing is
//! data-independent — which is the structural-determinism property the
//! hazard analyzer already relies on ([`crate::analysis`]).
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
//! address depended on a loaded value, the canary change perturbs it.

use crate::analysis::{AccessClass, SiteId};
use crate::lane::{LaneMask, WARP};
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
    /// No closed form attempted (vectorized shared accesses, whose pass
    /// count is a segment property); the site is still classified and
    /// hashed, but excluded from mismatch accounting.
    Measured,
}

/// Result of fitting one request's active-lane values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fit {
    /// ≤ 1 active lane: consistent with any stride (does not constrain the
    /// site form).
    Any { base: i128 },
    /// Exact affine fit over ≥ 2 active lanes.
    Affine { base: i128, stride: i64 },
    /// No affine fit.
    Irregular,
}

/// Fit `v(lane) = base + stride·lane` over the active lanes.
fn fit_affine(vals: &[u64; WARP], mask: LaneMask) -> Fit {
    let mut lanes = mask.lanes();
    let Some(l0) = lanes.next() else {
        return Fit::Irregular; // callers skip empty masks
    };
    let v0 = vals[l0] as i128;
    let Some(l1) = lanes.next() else {
        // Single point: report its value as the base.
        return Fit::Any { base: v0 };
    };
    let dv = vals[l1] as i128 - v0;
    let dl = (l1 - l0) as i128;
    if dv % dl != 0 {
        return Fit::Irregular;
    }
    let stride = dv / dl;
    if stride > i64::MAX as i128 || stride < i64::MIN as i128 {
        return Fit::Irregular;
    }
    let base = v0 - stride * l0 as i128;
    for l in mask.lanes() {
        if vals[l] as i128 != base + stride * l as i128 {
            return Fit::Irregular;
        }
    }
    Fit::Affine {
        base,
        stride: stride as i64,
    }
}

/// Closed-form transaction count from affine coefficients: the number of
/// distinct sectors the 4-byte accesses `{base + stride·l | l ∈ mask}`
/// touch, mirroring [`crate::memory::coalesce`] exactly (including
/// sector-straddling accesses).
fn sectors_from_form(base: i128, stride: i64, mask: LaneMask, sector_bytes: u64) -> u64 {
    let sb = sector_bytes as i128;
    let mut sectors: Vec<i128> = Vec::with_capacity(8);
    for l in mask.lanes() {
        let a = base + stride as i128 * l as i128;
        let first = a & !(sb - 1);
        let last = (a + 3) & !(sb - 1);
        let mut s = first;
        loop {
            if !sectors.contains(&s) {
                sectors.push(s);
            }
            if s == last {
                break;
            }
            s += sb;
        }
    }
    sectors.len() as u64
}

/// Closed-form pass count from affine coefficients: max distinct words per
/// bank over `{base + stride·l | l ∈ mask}`, mirroring
/// [`crate::memory::SharedMem::passes`] exactly for any bank count. Sorted
/// `(bank, word)` keys on the stack put each bank's words side by side;
/// the count is the longest same-bank run of distinct words. At least 1.
fn passes_from_form(base: i128, stride: i64, mask: LaneMask, banks: u32) -> u64 {
    let mut keys = [(0i128, 0i128); WARP];
    let mut n = 0;
    for l in mask.lanes() {
        let w = base + stride as i128 * l as i128;
        keys[n] = (w.rem_euclid(banks as i128), w);
        n += 1;
    }
    let keys = &mut keys[..n];
    keys.sort_unstable();
    let (mut run, mut most) = (1, 1);
    for pair in keys.windows(2) {
        if pair[1] == pair[0] {
            continue;
        }
        if pair[1].0 == pair[0].0 {
            run += 1;
            most = most.max(run);
        } else {
            run = 1;
        }
    }
    most
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
    /// Order-dependent digest of the site's address stream (mask bits and
    /// active-lane values per request, merged block-linearly). Equal
    /// hashes across two phantom runs with different canaries certify the
    /// stream is data-independent.
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

/// Per-block (then launch-wide, via block-linear merge) collector of
/// symbolic site state. Mirrors the analyzer's collector shape so both
/// launch engines aggregate identically.
#[derive(Debug, Clone, Default)]
pub struct SymBlockCollector {
    sites: BTreeMap<(SiteId, AccessClass), SymSiteAgg>,
    blocks: u64,
}

impl SymBlockCollector {
    /// Fresh collector for one block.
    pub fn for_block() -> Self {
        SymBlockCollector {
            sites: BTreeMap::new(),
            blocks: 1,
        }
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
        let agg = self.sites.entry((site, class)).or_default();
        agg.requests += 1;
        agg.active_lanes += u64::from(mask.count());
        agg.transactions += measured;
        agg.max_degree = agg.max_degree.max(measured);
        if dynamic {
            agg.dynamic_requests += 1;
        }

        let fit = fit_affine(vals, mask);
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

        // Closed-form prediction from the fitted coefficients. Dynamic
        // sites are top: no prediction is attempted even when one request
        // happens to fit.
        if !dynamic {
            let coeffs = match fit {
                Fit::Any { base } => Some((base, 0i64)),
                Fit::Affine { base, stride } => Some((base, stride)),
                Fit::Irregular => None,
            };
            if let Some((base, stride)) = coeffs {
                let predicted = match model {
                    PredictModel::Sectors { sector_bytes } => {
                        Some(sectors_from_form(base, stride, mask, sector_bytes))
                    }
                    PredictModel::Banks { banks } => {
                        Some(passes_from_form(base, stride, mask, banks))
                    }
                    PredictModel::Measured => None,
                };
                if let Some(p) = predicted {
                    agg.predicted += p;
                    agg.predicted_requests += 1;
                    if p != measured {
                        agg.mismatches += 1;
                    }
                }
            }
        }

        // Stream digest: mask bits then each active lane's value, in lane
        // order — deterministic within a block, merged block-linearly.
        let mut h = hash_combine(agg.stream_hash, mask.0 as u64);
        for l in mask.lanes() {
            h = hash_combine(h, vals[l]);
        }
        agg.stream_hash = h;
    }

    /// Merge another block's collector in block-linear order.
    pub fn merge(&mut self, other: &SymBlockCollector) {
        for (key, agg) in &other.sites {
            self.sites.entry(*key).or_default().absorb(agg);
        }
        self.blocks += other.blocks;
    }

    /// Number of distinct instrumented sites observed.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Freeze into a report.
    pub fn into_report(self) -> SymReport {
        let sites = self
            .sites
            .into_iter()
            .map(|((site, class), agg)| SymSiteRecord {
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
            })
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
                let measured = smem.passes(&idx, mask).max(1);
                let predicted = passes_from_form(base as i128, stride, mask, banks);
                assert_eq!(
                    predicted, measured,
                    "banks {banks} base {base} stride {stride} mask {mask:?}"
                );
            }
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
