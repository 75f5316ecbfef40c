//! Column reuse (paper §II-A, Algorithm 1): materialize the `FW` input
//! columns every lane needs while issuing only the plan's loads, filling
//! the rest with register-resident shuffle exchanges.

use crate::plan::{ColumnPlan, Exchange};
use memconv_gpusim::{BufId, WarpCtx, VF, WARP};

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
///
/// The simulator counts the three register instructions of steps 1–3 and
/// the one shuffle, but moves the value in one pass
/// ([`WarpCtx::shfl_xor_select`]): lane `t` receives `hi[t ^ m]` when
/// `t & m != 0`, and `lo[t ^ m]` otherwise, which is what the device
/// delivers.
pub fn exchange_step(w: &mut WarpCtx<'_, '_>, lo_val: &VF, hi_val: &VF, e: &Exchange) -> VF {
    // pack + variable shift + unpack: three register instructions.
    w.count_fp(3);
    w.shfl_xor_select(lo_val, hi_val, e.mask)
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
    for &k in &plan.loads {
        slots[k] = w.gld_run(input, 0, row_lanes(cols_left, k), row_base + k as u32);
    }
    exchange_slots(w, plan, slots);
}

/// Fill the plan's shuffle-produced slots from the loaded ones.
fn exchange_slots(w: &mut WarpCtx<'_, '_>, plan: &ColumnPlan, slots: &mut [VF]) {
    for e in &plan.exchanges {
        slots[e.mid()] = exchange_step(w, &slots[e.lo], &slots[e.hi], e);
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
        let (lo, n, start) = clipped_run(row_start, col0 + k as i64, iw);
        slots[k] = w.gld_run(input, lo, n, start);
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
        let (lo, n, start) = clipped_run(row_start, col0 + k as i64, iw);
        *slot = w.gld_run(input, lo, n, start);
    }
}

/// The lanes that load slot `k` of a row with `cols_left` columns left
/// from the warp's first: lanes `0..n`, whose column `lane + k` is inside
/// the row.
fn row_lanes(cols_left: u32, k: usize) -> usize {
    cols_left.saturating_sub(k as u32).min(WARP as u32) as usize
}

/// The lane run of column `base_col + lane` of the `iw`-wide row starting
/// at element `row_start`: `(lo, n, start)`, where lanes `lo..lo + n` are
/// those whose column lies inside the row and `start` is lane `lo`'s
/// element.
fn clipped_run(row_start: u32, base_col: i64, iw: usize) -> (usize, usize, u32) {
    let lo = (-base_col).clamp(0, WARP as i64);
    let end = (iw as i64 - base_col).clamp(lo, WARP as i64);
    let start = (row_start as i64 + base_col + lo) as u32;
    (lo as usize, (end - lo) as usize, start)
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
    for (k, slot) in slots.iter_mut().enumerate() {
        *slot = w.gld_run(input, 0, row_lanes(cols_left, k), row_base + k as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memconv_gpusim::{
        DeviceConfig, FaultKind, FaultPlan, GpuSim, KernelStats, LaunchConfig, VU, VU64,
    };

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

    /// Algorithm 1's exchange as the device executes it, literally: pack
    /// `{lo, hi}` into 64 bits, shift right by 32 in the lanes whose mask
    /// bit is 0, unpack the low half and `shfl_xor` it — the reference
    /// for [`exchange_step`]'s one-pass shuffle.
    fn exchange_device(w: &mut WarpCtx<'_, '_>, lo: &VF, hi: &VF, e: &Exchange) -> VF {
        let packed = VU64::pack(lo, hi);
        let shift = VU::from_fn(|l| if l & e.mask == 0 { 32 } else { 0 });
        let send = (packed >> shift).unpack_lo();
        w.count_fp(3);
        w.shfl_xor(&send, e.mask)
    }

    /// A lane's bits: raw, a NaN with a payload, ±0.0 or a subnormal.
    fn edge_bits(r: u64) -> u32 {
        let bits = (r >> 32) as u32;
        match r % 5 {
            0 => 0x7f80_0000 | (bits & 0x807f_ffff) | 1,
            1 => bits & 0x8000_0000,
            2 => (bits & 0x807f_ffff) | 1,
            _ => bits,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// `exchange_step` delivers the device's bits at every mask Algorithm
        /// 1 uses, with the device's counters, and, under an armed shuffle
        /// fault plan, the same corrupted lane and bit.
        #[test]
        fn exchange_step_matches_pack_shift_unpack(
            lo in proptest::collection::vec(proptest::prelude::any::<u64>(), WARP),
            hi in proptest::collection::vec(proptest::prelude::any::<u64>(), WARP),
            rate in 0u32..3, seed in proptest::prelude::any::<u64>())
        {
            let lo = VF::from_fn(|l| f32::from_bits(edge_bits(lo[l])));
            let hi = VF::from_fn(|l| f32::from_bits(edge_bits(hi[l])));
            let run = |device: bool| {
                let mut sim = GpuSim::new(DeviceConfig::test_tiny());
                if rate > 0 {
                    sim.set_fault_plan(Some(FaultPlan::new(seed).with_rate(FaultKind::ShuffleCorrupt, rate)));
                }
                let got = std::sync::Mutex::new(Vec::new());
                let stats = sim.launch(&LaunchConfig::linear(1, 32), |blk| {
                    blk.each_warp(|w| {
                        for mask in [1, 2, 4, 8, 16] {
                            let e = Exchange { lo: 0, hi: 2 * mask, mask };
                            let v = if device {
                                exchange_device(w, &lo, &hi, &e)
                            } else {
                                exchange_step(w, &lo, &hi, &e)
                            };
                            got.lock().unwrap().push(v.to_bits());
                        }
                    })
                });
                (got.into_inner().unwrap(), stats, sim.take_fault_log())
            };
            let (ours, device) = (run(false), run(true));
            assert_eq!(ours, device);
            assert_eq!(ours.1.shfl_instrs, 5);
            assert_eq!(ours.1.fp_instrs, 15);
        }
    }

    /// A clipped row's stated run is exactly the lanes whose column lies
    /// inside the row, at the elements the per-lane index gave them.
    #[test]
    fn clipped_runs_are_the_in_row_lanes() {
        for iw in 1..70usize {
            for base_col in -40..80i64 {
                let row_start = 1000 + 7 * iw as u32;
                let (lo, n, start) = clipped_run(row_start, base_col, iw);
                for l in 0..WARP {
                    let col = base_col + l as i64;
                    let inside = col >= 0 && (col as usize) < iw;
                    assert_eq!(
                        (lo..lo + n).contains(&l),
                        inside,
                        "iw={iw} col0={base_col} l={l}"
                    );
                    if inside {
                        let want = (row_start as i64 + col) as u32;
                        assert_eq!(start + (l - lo) as u32, want);
                    }
                }
            }
        }
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
