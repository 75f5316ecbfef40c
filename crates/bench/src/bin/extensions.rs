//! Extension harness: the features built beyond the paper's evaluation —
//! the multi-filter kernel (the paper's §IV-B future work), the MEC
//! related-work baseline, `Same`-padded convolution, and the auto-tuner.
//!
//! ```sh
//! cargo run --release -p memconv-bench --bin extensions
//! ```

use memconv::core::kernel_multi_filter::OursMultiFilter;
use memconv::core::{autotune_2d, conv_nchw_multi_filter, conv_nchw_ours_geo, StridedPlan};
use memconv::prelude::*;
use memconv_bench::{harness_sample, run_nchw};

fn main() {
    let sample = harness_sample();

    // --- multi-filter reuse on the many-filter Table I layers -------------
    println!("=== filter-direction reuse (paper §IV-B future work) ===");
    println!(
        "{:<9} {:>6} {:>12} {:>12} {:>12} {:>10}",
        "layer", "FN", "ours (us)", "ours+mf", "precomp", "mf gain"
    );
    for layer in table1_layers() {
        if !["CONV1", "CONV5", "CONV8", "CONV9"].contains(&layer.name) {
            continue;
        }
        let batch = 8; // reduced batch; ratios carry
        let ic = 3;
        let mut rng = TensorRng::new(layer.spatial as u64);
        let input = rng.tensor(batch, ic, layer.spatial, layer.spatial);
        let bank = rng.filter_bank(layer.filters, ic, layer.filter, layer.filter);

        let ours = run_nchw(
            &Ours::with_config(OursConfig::full().with_sample(sample)),
            &input,
            &bank,
        );
        let mf = run_nchw(&OursMultiFilter::new().with_sample(sample), &input, &bank);
        let pre = run_nchw(&PrecompGemm::new().with_sample(sample), &input, &bank);
        println!(
            "{:<9} {:>6} {:>12.1} {:>12.1} {:>12.1} {:>9.2}x",
            layer.name,
            layer.filters,
            ours.time * 1e6,
            mf.time * 1e6,
            pre.time * 1e6,
            ours.time / mf.time,
        );
    }

    // --- MEC vs explicit im2col --------------------------------------------
    println!("\n=== MEC (related work [4]) vs im2col lowering footprint ===");
    let mut rng = TensorRng::new(77);
    let input = rng.tensor(1, 3, 224, 224);
    let bank = rng.filter_bank(8, 3, 5, 5);
    let mec = run_nchw(&MecConv::new().with_sample(sample), &input, &bank);
    let gemm = run_nchw(&Im2colGemm::cudnn_gemm().with_sample(sample), &input, &bank);
    let ours = run_nchw(
        &Ours::with_config(OursConfig::full().with_sample(sample)),
        &input,
        &bank,
    );
    println!(
        "  MEC     : {:>9.1} us, {:>11} txns",
        mec.time * 1e6,
        mec.transactions
    );
    println!(
        "  im2col  : {:>9.1} us, {:>11} txns",
        gemm.time * 1e6,
        gemm.transactions
    );
    println!(
        "  ours    : {:>9.1} us, {:>11} txns  (no lowering at all)",
        ours.time * 1e6,
        ours.transactions
    );

    // --- strided convolution (CNN stem layers) ------------------------------
    println!("\n=== strided column reuse (extension; e.g. AlexNet conv1 stride 4) ===");
    println!(
        "{:<22} {:>12} {:>14} {:>14} {:>8}",
        "config", "plan", "direct txns", "ours txns", "saving"
    );
    let mut rng2 = TensorRng::new(2121);
    let stem = rng2.tensor(1, 1, 227, 227);
    for (f, stride) in [(11usize, 4usize), (7, 2), (5, 2), (3, 2)] {
        let filt = rng2.filter_bank(1, 1, f, f);
        let g = ConvGeometry::single(227, 227, f).with_stride(stride, stride);
        let plan = StridedPlan::new(f, stride);
        let txns = |column_reuse: bool| {
            let cfg = OursConfig {
                column_reuse,
                ..OursConfig::full().with_sample(sample)
            };
            let mut sim = GpuSim::rtx2080ti();
            let (_, s) = conv_nchw_ours_geo(&mut sim, &stem, &filt, &g, &cfg);
            s.gld_transactions
        };
        let direct = txns(false);
        let ours = txns(true);
        println!(
            "{:<22} {:>12} {:>14} {:>14} {:>7.2}x",
            format!("{f}x{f} stride {stride}"),
            format!("{}+{}shfl", plan.num_base_loads(), plan.num_shuffles()),
            direct,
            ours,
            direct as f64 / ours as f64,
        );
    }

    // --- auto-tuner ----------------------------------------------------------
    println!("\n=== auto-tuned tile configuration per image size ===");
    println!("{:<10} {:>14} {:>12}", "size", "rows/thread", "warps/blk");
    for size in [256usize, 1024, 4096] {
        let g = ConvGeometry::single(size, size, 5);
        let rep = autotune_2d(&DeviceConfig::rtx2080ti(), &g).expect("single-channel geometry");
        println!(
            "{:<10} {:>14} {:>12}",
            format!("{size}x{size}"),
            rep.best.rows_per_thread,
            rep.best.block_warps
        );
    }
    let _ = conv_nchw_multi_filter; // re-exported entry point exercised in tests
}
