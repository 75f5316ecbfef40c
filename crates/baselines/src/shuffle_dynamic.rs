//! The Fig. 1b strawman: shuffle-based column reuse with a **dynamically
//! indexed** per-thread buffer.
//!
//! This is the "optimized version" of the paper's §II-A2: it removes the
//! redundant global loads exactly like Algorithm 1, but selects the value
//! to exchange with a data-dependent index into `iTemp`. Since the access
//! pattern is not resolvable at compile time, the buffer lives in *local
//! memory* — every access becomes a real memory transaction with ~500-cycle
//! latency (paper §II-A2). Algorithm 1's pack/shift/unpack device exists to
//! eliminate precisely this cost; benchmarking this variant against
//! `memconv-core` isolates the value of the static-index transformation
//! (§IV, contribution 3).

use memconv_core::api::Conv2dAlgorithm;
use memconv_core::plan::ColumnPlan;
use memconv_core::row_reuse::contributions_tiled;
use memconv_gpusim::{GpuSim, LaunchConfig, PrivArray, RunReport, SampleMode, VF, VU, WARP};
use memconv_tensor::{Filter2D, Image2D};

/// Maximum filter width of the dynamic-index buffer (a `float iTemp[8]`).
const MAX_FW: usize = 8;

/// The dynamically indexed shuffle convolution (ablation baseline).
#[derive(Debug, Clone)]
pub struct ShuffleDynamic {
    /// Block sampling for performance runs.
    pub sample: SampleMode,
}

impl ShuffleDynamic {
    /// New instance with full simulation.
    pub fn new() -> Self {
        ShuffleDynamic {
            sample: SampleMode::Full,
        }
    }

    /// Set block sampling.
    pub fn with_sample(mut self, sample: SampleMode) -> Self {
        self.sample = sample;
        self
    }
}

impl Default for ShuffleDynamic {
    fn default() -> Self {
        ShuffleDynamic::new()
    }
}

impl Conv2dAlgorithm for ShuffleDynamic {
    fn name(&self) -> &str {
        "shuffle-dynamic"
    }

    fn supports(&self, fh: usize, fw: usize) -> bool {
        fh <= MAX_FW && fw <= MAX_FW
    }

    fn run(&self, sim: &mut GpuSim, input: &Image2D, filter: &Filter2D) -> (Image2D, RunReport) {
        let (ih, iw) = (input.h(), input.w());
        let (fh, fw) = (filter.fh(), filter.fw());
        assert!(self.supports(fh, fw), "filter too wide for iTemp[{MAX_FW}]");
        let (oh, ow) = (ih - fh + 1, iw - fw + 1);
        let bi = sim.mem.upload_shared(input.shared());
        let bf = sim.mem.upload(filter.as_slice());
        let bo = sim.mem.alloc(oh * ow);
        let plan = ColumnPlan::new(fw);

        let block_warps = 4usize;
        let gx = ow.div_ceil(WARP * block_warps) as u32;
        let gy = oh as u32;
        let cfg =
            LaunchConfig::grid2d(gx, gy, (WARP * block_warps) as u32).with_sample(self.sample);

        let stats = sim.launch(&cfg, |blk| {
            let (bx, by, _) = blk.block_idx;
            blk.each_warp(|w| {
                let x0 = (bx as usize * block_warps + w.warp_id) * WARP;
                if x0 >= ow {
                    return;
                }
                let oy = by as usize;

                let mut fvals: Vec<VF> = Vec::with_capacity(fh * fw);
                for i in 0..(fh * fw) as u32 {
                    fvals.push(w.const_load(bf, i));
                }

                // The dynamically indexed buffer: lives in local memory.
                let mut itemp = PrivArray::<MAX_FW>::local();
                let lane = w.lane_id();
                let mut acc = VF::splat(0.0);

                for iy in oy..oy + fh {
                    let row_base = (iy * iw + x0) as u32;
                    let cols_left = (iw - x0) as u32;
                    // Loads of the plan's endpoint slots (same loads as
                    // Algorithm 1)…
                    for &k in &plan.loads {
                        let idx = lane + (row_base + k as u32);
                        let mask = lane.lt_scalar(cols_left.saturating_sub(k as u32));
                        let v = w.gld(bi, &idx, mask);
                        itemp.set(w, k, v);
                    }
                    // …but the exchanges pick the value to send with a
                    // data-dependent index (Fig. 1b): a local-memory gather.
                    for e in &plan.exchanges {
                        let sel = VU::from_fn(|l| {
                            if l & e.mask == 0 {
                                e.hi as u32
                            } else {
                                e.lo as u32
                            }
                        });
                        let send = itemp.get_dyn(w, &sel, memconv_gpusim::LaneMask::ALL);
                        let got = w.shfl_xor(&send, e.mask);
                        itemp.set(w, e.mid(), got);
                    }
                    // Accumulate this filter row; every tap read comes from
                    // local memory.
                    let (_, fr) = contributions_tiled(iy, fh, oy, 1, oh)
                        .last()
                        .expect("row in range");
                    for s in 0..fw {
                        let v = itemp.get(w, s);
                        acc = w.fma(v, fvals[fr * fw + s], acc);
                    }
                }

                let store_mask = lane.lt_scalar((ow - x0) as u32);
                let idx = lane + (oy * ow + x0) as u32;
                w.gst(bo, &idx, &acc, store_mask);
            });
        });

        let out = Image2D::from_vec(oh, ow, sim.mem.take(bo)).expect("shape by construction");
        let mut rep = RunReport::new();
        rep.push("shuffle_dynamic", stats);
        (out, rep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_core::{conv2d_ours, Ours, OursConfig};
    use memconv_gpusim::DeviceConfig;
    use memconv_ref::conv2d_ref;
    use memconv_tensor::generate::TensorRng;

    #[test]
    fn matches_reference_exactly() {
        let mut rng = TensorRng::new(41);
        for f in [3usize, 5] {
            let img = rng.image(12, 40);
            let k = rng.filter(f, f);
            let mut sim = GpuSim::new(DeviceConfig::test_tiny());
            let (out, _) = ShuffleDynamic::new().run(&mut sim, &img, &k);
            assert_eq!(out.as_slice(), conv2d_ref(&img, &k).as_slice(), "f={f}");
        }
    }

    #[test]
    fn same_global_loads_as_algorithm1_but_pays_local_memory() {
        let mut rng = TensorRng::new(42);
        let img = rng.image(16, 64);
        let k = rng.filter(5, 5);

        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, dyn_rep) = ShuffleDynamic::new().run(&mut sim, &img, &k);
        let dyn_stats = dyn_rep.totals();

        let mut sim = GpuSim::new(DeviceConfig::rtx2080ti());
        let (_, ours_stats) = conv2d_ours(&mut sim, &img, &k, &OursConfig::column_only());

        // Identical global-load requests (both load only the endpoints)…
        assert_eq!(dyn_stats.gld_requests, ours_stats.gld_requests);
        // …but the dynamic variant pays heavy local-memory traffic while
        // Algorithm 1 pays none.
        assert_eq!(ours_stats.local_transactions(), 0);
        assert!(dyn_stats.local_transactions() > dyn_stats.gld_transactions);
        let _ = Ours::new();
    }

    #[test]
    fn rejects_oversized_filters() {
        assert!(!ShuffleDynamic::new().supports(9, 9));
        assert!(ShuffleDynamic::new().supports(5, 5));
    }

    #[test]
    fn hazard_analyzer_flags_the_dynamic_index_here() {
        // This baseline exists to be caught: the analyzer must attribute a
        // dynamic-index hazard to the `itemp.get_dyn` call in this file.
        use memconv_gpusim::{HazardPass, Severity};
        let mut rng = TensorRng::new(43);
        let img = rng.image(12, 40);
        let k = rng.filter(3, 3);
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        sim.set_analysis(Some(Default::default()));
        let _ = ShuffleDynamic::new().run(&mut sim, &img, &k);
        let report = sim.take_hazard_report().expect("analysis enabled");
        let hits: Vec<_> = report.by_pass(HazardPass::DynamicIndex).collect();
        assert_eq!(hits.len(), 1, "exactly the get_dyn site:\n{report}");
        assert_eq!(hits[0].severity, Severity::Error);
        assert_eq!(hits[0].site.file_name(), "shuffle_dynamic.rs");
        // The statically indexed `itemp.set`/`get` sites on the same local
        // array are reported as promotion-candidate warnings, not errors.
        assert!(report.by_pass(HazardPass::LocalResidency).next().is_some());
    }
}
