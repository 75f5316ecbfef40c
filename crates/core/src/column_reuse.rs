//! Column reuse (paper §II-A, Algorithm 1): materialize the `FW` input
//! columns every lane needs while issuing only the plan's loads, filling
//! the rest with register-resident shuffle exchanges.

use crate::plan::{ColumnPlan, Exchange};
use memconv_gpusim::{BufId, WarpCtx, VF, VU, VU64};

/// Execute one Algorithm 1 exchange.
///
/// `lo_val`/`hi_val` hold slots `e.lo` and `e.hi` (columns `t + e.lo` and
/// `t + e.hi` in lane `t`); the return value is slot `e.mid()`.
///
/// This is the paper's pack/shift/unpack device, generalized from mask 2 to
/// any power-of-two mask `m`:
///
/// 1. `mov exchange, {lo, hi}` — pack into a 64-bit register;
/// 2. shift right by 32 exactly in the lanes whose `m`-bit is 0 (they must
///    supply `hi`; the paper's `((tid + 2) & 2) << 4` is the `m = 2`
///    instance of this predicate);
/// 3. the value to send now sits in the **statically indexed** low half —
///    no dynamic indexing, so the buffer stays in registers (§IV);
/// 4. `shfl_xor` with mask `m` delivers it to the partner lane.
pub fn exchange_step(w: &mut WarpCtx<'_, '_>, lo_val: &VF, hi_val: &VF, e: &Exchange) -> VF {
    let packed = VU64::pack(lo_val, hi_val);
    let shift = VU::from_fn(|l| if l & e.mask == 0 { 32 } else { 0 });
    let shifted = packed >> shift;
    let send = shifted.unpack_lo();
    // pack + variable shift + unpack: three register instructions.
    w.count_fp(3);
    w.shfl_xor(&send, e.mask)
}

/// Load one input row's columns `x0 + lane + k`, `k ∈ [0, plan.fw)`, into
/// the per-lane `slots` (`plan.fw` of them, owned by the caller so a warp
/// reuses one buffer for every row), issuing only `plan.num_loads()`
/// global loads and reconstructing the rest with shuffles.
///
/// * `row_base` — flat element index of `input[row][x0]`;
/// * `cols_left` — `IW − x0`: columns available from `x0` to the row's end
///   (loads beyond it are masked off, mirroring the halo predicate of the
///   CUDA kernel).
///
/// Every slot is overwritten. Slots are exact for every lane whose column
/// `x0 + lane + k` is inside the row; other lanes hold unspecified values
/// that callers mask at the store.
pub fn load_row_columns(
    w: &mut WarpCtx<'_, '_>,
    input: BufId,
    row_base: u32,
    cols_left: u32,
    plan: &ColumnPlan,
    slots: &mut [VF],
) {
    assert_eq!(slots.len(), plan.fw, "one slot per filter column");
    let lane = w.lane_id();
    for &k in &plan.loads {
        let idx = lane + (row_base + k as u32);
        let mask = lane.lt_scalar(cols_left.saturating_sub(k as u32));
        slots[k] = w.gld(input, &idx, mask);
    }
    exchange_slots(w, plan, slots);
}

/// Fill the plan's shuffle-produced slots from the loaded ones.
fn exchange_slots(w: &mut WarpCtx<'_, '_>, plan: &ColumnPlan, slots: &mut [VF]) {
    for e in &plan.exchanges {
        let lo = slots[e.lo];
        let hi = slots[e.hi];
        slots[e.mid()] = exchange_step(w, &lo, &hi, e);
    }
}

/// Clipped variant for zero-padded convolution: lane `l`'s slot `k` is the
/// column `col0 + l + k` of the row starting at element `row_start`
/// (`col0` may be negative under left padding). Out-of-row lanes are
/// masked off and read 0.0 — which is exactly the zero-padding value, so
/// the shuffle exchanges propagate correct padded data with no extra
/// logic. Fills the caller's `slots` like [`load_row_columns`].
pub fn load_row_columns_clipped(
    w: &mut WarpCtx<'_, '_>,
    input: BufId,
    row_start: u32,
    col0: i64,
    iw: usize,
    plan: &ColumnPlan,
    slots: &mut [VF],
) {
    assert_eq!(slots.len(), plan.fw, "one slot per filter column");
    for &k in &plan.loads {
        let (idx, mask) = clipped_row_index(row_start, col0 + k as i64, iw);
        slots[k] = w.gld(input, &idx, mask);
    }
    exchange_slots(w, plan, slots);
}

/// Clipped direct loads (Fig. 1a flow under zero padding): one load per
/// slot, `slots.len()` being the filter width.
pub fn load_row_columns_direct_clipped(
    w: &mut WarpCtx<'_, '_>,
    input: BufId,
    row_start: u32,
    col0: i64,
    iw: usize,
    slots: &mut [VF],
) {
    for (k, slot) in slots.iter_mut().enumerate() {
        let (idx, mask) = clipped_row_index(row_start, col0 + k as i64, iw);
        *slot = w.gld(input, &idx, mask);
    }
}

/// Per-lane index + in-row mask for column `base_col + lane`.
fn clipped_row_index(row_start: u32, base_col: i64, iw: usize) -> (VU, memconv_gpusim::LaneMask) {
    let mask = memconv_gpusim::LaneMask::from_fn(|l| {
        let col = base_col + l as i64;
        col >= 0 && (col as usize) < iw
    });
    let idx = VU::from_fn(|l| (row_start as i64 + base_col + l as i64) as u32);
    (idx, mask)
}

/// The unoptimized comparison point: load all `FW = slots.len()` columns
/// directly (the Fig. 1a flow). Same masking contract as
/// [`load_row_columns`].
pub fn load_row_columns_direct(
    w: &mut WarpCtx<'_, '_>,
    input: BufId,
    row_base: u32,
    cols_left: u32,
    slots: &mut [VF],
) {
    let lane = w.lane_id();
    for (k, slot) in slots.iter_mut().enumerate() {
        let idx = lane + (row_base + k as u32);
        let mask = lane.lt_scalar(cols_left.saturating_sub(k as u32));
        *slot = w.gld(input, &idx, mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::{DeviceConfig, GpuSim, KernelStats, LaunchConfig, WARP};

    /// Run `f` in a single warp against an input of `0..n` ramp data.
    fn with_ramp_warp(n: usize, f: impl FnMut(&mut WarpCtx<'_, '_>, BufId) + Send) -> KernelStats {
        let mut sim = GpuSim::new(DeviceConfig::test_tiny());
        let data: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let buf = sim.mem.upload(&data);
        // Kernels are `Fn + Sync`; the Mutex adapts a stateful test closure.
        let f = std::sync::Mutex::new(f);
        sim.launch(&LaunchConfig::linear(1, 32), |blk| {
            blk.each_warp(|w| (f.lock().unwrap())(w, buf));
        })
    }

    #[test]
    fn slots_equal_direct_loads_for_all_widths() {
        for fw in [1usize, 2, 3, 5, 7, 9, 11, 15] {
            let plan = ColumnPlan::new(fw);
            let n = WARP + fw; // exactly enough columns for every slot
            with_ramp_warp(n, |w, buf| {
                let mut ours = vec![VF::splat(f32::NAN); fw];
                load_row_columns(w, buf, 0, n as u32, &plan, &mut ours);
                for (k, slot) in ours.iter().enumerate() {
                    for l in 0..WARP {
                        assert_eq!(slot.lane(l), (l + k) as f32, "fw={fw} slot={k} lane={l}");
                    }
                }
            });
        }
    }

    #[test]
    fn fewer_load_requests_than_direct() {
        for fw in [3usize, 5, 7] {
            let plan = ColumnPlan::new(fw);
            let n = WARP + fw;
            let mut slots = vec![VF::splat(0.0); fw];
            let ours = with_ramp_warp(n, |w, buf| {
                load_row_columns(w, buf, 0, n as u32, &plan, &mut slots);
            });
            let direct = with_ramp_warp(n, |w, buf| {
                load_row_columns_direct(w, buf, 0, n as u32, &mut slots);
            });
            assert_eq!(direct.gld_requests, fw as u64);
            assert_eq!(ours.gld_requests, plan.num_loads() as u64);
            assert!(ours.gld_requests < direct.gld_requests, "fw={fw}");
            assert_eq!(ours.shfl_instrs, plan.num_shuffles() as u64);
            assert!(
                ours.gld_transactions < direct.gld_transactions,
                "fw={fw}: {} vs {}",
                ours.gld_transactions,
                direct.gld_transactions
            );
        }
    }

    #[test]
    fn row_base_offsets_apply() {
        let plan = ColumnPlan::new(3);
        with_ramp_warp(100, |w, buf| {
            let mut slots = [VF::splat(0.0); 3];
            load_row_columns(w, buf, 40, 60, &plan, &mut slots);
            assert_eq!(slots[0].lane(0), 40.0);
            assert_eq!(slots[1].lane(5), 46.0);
            assert_eq!(slots[2].lane(31), 73.0);
        });
    }

    #[test]
    fn masked_tail_lanes_stay_in_bounds() {
        // Only 20 columns remain: lanes whose column would run past the row
        // must not fault and must not contribute transactions.
        let plan = ColumnPlan::new(5);
        let stats = with_ramp_warp(64, |w, buf| {
            let mut slots = [VF::splat(0.0); 5];
            load_row_columns(w, buf, 0, 20, &plan, &mut slots);
            // lanes 0..16 have all 5 columns in range; check an interior one
            assert_eq!(slots[4].lane(10), 14.0);
            // shuffle-filled slot for a fully-in-range lane
            assert_eq!(slots[2].lane(3), 5.0);
        });
        assert!(stats.gld_transactions > 0);
    }

    #[test]
    fn no_local_memory_is_touched() {
        // The point of Algorithm 1: everything stays in registers.
        let plan = ColumnPlan::new(5);
        let stats = with_ramp_warp(64, |w, buf| {
            load_row_columns(w, buf, 0, 40, &plan, &mut [VF::splat(0.0); 5]);
        });
        assert_eq!(stats.local_requests, 0);
        assert_eq!(stats.local_transactions(), 0);
    }

    #[test]
    fn exchange_step_matches_paper_walkthrough() {
        // Fig. 1c / Algorithm 1 with a 5-wide filter: slots 0 and 4 loaded,
        // mask-2 exchange produces slot 2 (column t+2).
        with_ramp_warp(64, |w, _| {
            let lo = VF::from_fn(|t| t as f32); // column t
            let hi = VF::from_fn(|t| (t + 4) as f32); // column t+4
            let e = Exchange {
                lo: 0,
                hi: 4,
                mask: 2,
            };
            let mid = exchange_step(w, &lo, &hi, &e);
            for t in 0..WARP {
                assert_eq!(mid.lane(t), (t + 2) as f32, "lane {t}");
            }
        });
    }
}
