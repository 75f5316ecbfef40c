//! Geometry extension study: transaction-count analysis of the
//! geometry-general kernels on the axes the paper holds fixed —
//! groups/depthwise, dilation and stride.
//!
//! ```sh
//! cargo run --release -p memconv-bench --bin geom                # full profile
//! cargo run --release -p memconv-bench --bin geom -- --smoke --gate
//! cargo run --release -p memconv-bench --bin geom -- --seed 7 --mode parallel
//! ```
//!
//! Four panels, all on `SampleMode::Full` launches (exact counters, no
//! extrapolation):
//!
//! 1. **depthwise vs dense** — a MobileNet-style 3×3 block run dense
//!    (groups 1, C→C) and depthwise (groups = C): `ours` on the depthwise
//!    block touches `1/C` of the dense MAC volume and its global
//!    transactions must sit strictly below the dense block's.
//! 2. **stride sweep** — transactions vs stride on a fixed block; a
//!    stride-`s` output plane has ~`1/s²` of the stride-1 elements, and
//!    the load/store traffic must track that.
//! 3. **dilation sweep** — transactions vs dilation; the output shrinks
//!    only by the dilated-filter halo, so traffic stays near stride-1.
//! 4. **extended-zoo divergence check** — every model-zoo layer at its
//!    *published* stride (spatial/filter-capped, each capped geometry
//!    once) plus synthetic grouped/depthwise/dilated/strided geometries,
//!    each run through every registry algorithm whose `supports_shape`
//!    accepts it and compared against the CPU reference
//!    `conv_nchw_ref_geo` (bit-identical for `ours`, tolerance-checked
//!    for the accumulation-reordering GEMM baseline).
//!
//! Results land in `BENCH_geom.json` (append-with-dedup on the identity
//! prefix; rows carry `host_parallelism` and seed provenance). `--gate`
//! exits 1 unless the divergence count is zero **and** `ours` moves
//! strictly fewer transactions on the depthwise block than on the
//! dense-equivalent one.

use memconv::prelude::*;
use memconv::reference::conv_nchw_ref_geo;
use memconv::workloads::model_zoo;
use memconv_bench::{append_json_rows, host_parallelism, parse_flag, string_flag};

/// One registry algorithm the study drives, with its exactness contract
/// against the CPU reference.
struct Contender {
    algo: Box<dyn ConvNchwAlgorithm>,
    /// `ours` reproduces the reference bit-for-bit; the GEMM baseline
    /// reorders accumulation and is tolerance-checked instead.
    exact: bool,
}

fn contenders() -> Vec<Contender> {
    vec![
        Contender {
            algo: Box::new(Ours::with_config(OursConfig::full())),
            exact: true,
        },
        Contender {
            algo: Box::new(Im2colGemm::caffe()),
            exact: false,
        },
    ]
}

/// Run one (geometry, algorithm) cell and verify it against the CPU
/// reference. Returns `(transactions, diverged)`.
fn run_cell(c: &Contender, g: &ConvGeometry, seed: u64, mode: LaunchMode) -> (u64, f64, bool) {
    let mut rng = TensorRng::new(seed);
    let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
    let mut sim = GpuSim::rtx2080ti().with_launch_mode(mode);
    let (out, rep) = c.algo.run_geo(&mut sim, &input, &bank, g);
    let want = conv_nchw_ref_geo(&input, &bank, g);
    let diverged = if c.exact {
        out.as_slice() != want.as_slice()
    } else {
        !memconv::tensor::CompareReport::new(out.as_slice(), want.as_slice()).within(1e-4, 1e-4)
    };
    (
        rep.global_transactions(),
        rep.modeled_time(&sim.device),
        diverged,
    )
}

/// The extended zoo: every model-zoo layer at its published stride
/// (spatial/filter-count capped so `SampleMode::Full` stays tractable;
/// layers the caps make one geometry run once, under the first one's
/// label) plus synthetic geometries exercising each new axis and a
/// combined one.
fn extended_zoo(spatial: usize, channels: usize, filter_cap: usize) -> Vec<(String, ConvGeometry)> {
    let mut zoo: Vec<(String, ConvGeometry)> = Vec::new();
    for m in model_zoo() {
        let g = ConvGeometry::nchw(
            1,
            m.in_channels,
            spatial.min(m.spatial),
            spatial.min(m.spatial),
            m.filters.min(filter_cap),
            m.filter,
            m.filter,
        )
        .with_stride(m.native_stride, m.native_stride);
        if zoo.iter().all(|(_, z)| z.cache_key() != g.cache_key()) {
            zoo.push((format!("{}/{} s={}", m.model, m.layer, m.native_stride), g));
        }
    }
    let c = channels;
    let base = ConvGeometry::nchw(1, c, spatial, spatial, c, 3, 3);
    zoo.push(("grouped g=2".into(), base.with_groups(2)));
    zoo.push(("grouped g=4".into(), base.with_groups(4)));
    zoo.push(("depthwise g=C".into(), base.with_groups(c)));
    zoo.push(("dilated d=2".into(), base.with_dilation(2, 2)));
    zoo.push(("strided s=2".into(), base.with_stride(2, 2)));
    zoo.push((
        "combo s=2 d=2 g=2".into(),
        base.with_stride(2, 2).with_dilation(2, 2).with_groups(2),
    ));
    zoo
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let gate = args.iter().any(|a| a == "--gate");
    let seed = parse_flag::<u64>("--seed").unwrap_or(0x6E0A);
    let mode = match string_flag("--mode").as_deref() {
        None | Some("sequential") | Some("Sequential") => LaunchMode::Sequential,
        Some("parallel") | Some("Parallel") => LaunchMode::Parallel,
        Some(other) => {
            eprintln!("invalid --mode `{other}` (expected sequential | parallel)");
            std::process::exit(2);
        }
    };
    let (spatial, channels, filter_cap) = if smoke { (12, 8, 8) } else { (28, 16, 16) };
    let profile = if smoke { "smoke" } else { "full" };
    let engine = match mode {
        LaunchMode::Sequential => "sequential",
        LaunchMode::Parallel => "parallel",
    };
    println!(
        "=== geometry extension study — {profile} profile, {channels}ch {spatial}x{spatial}, \
         seed {seed:#x}, engine {engine} ==="
    );

    let mut rows: Vec<String> = Vec::new();
    let mut divergences = 0usize;

    // Panel 1: depthwise vs dense-equivalent MobileNet-style block.
    println!("\n-- depthwise vs dense (3x3, C={channels} -> C) --");
    println!(
        "{:<12} {:<18} {:>14} {:>12} {:>8}",
        "block", "algo", "transactions", "modeled_us", "vs dense"
    );
    let dense_g = ConvGeometry::nchw(1, channels, spatial, spatial, channels, 3, 3)
        .validate()
        .expect("dense block");
    let dw_g = ConvGeometry::nchw(1, channels, spatial, spatial, channels, 3, 3)
        .with_groups(channels)
        .validate()
        .expect("depthwise block");
    let mut dense_tx = 0u64;
    let mut dw_tx = u64::MAX;
    for (block, g) in [("dense", &dense_g), ("depthwise", &dw_g)] {
        for c in contenders() {
            if !c.algo.supports_shape(g) {
                continue;
            }
            let (tx, secs, diverged) = run_cell(&c, g, seed, mode);
            divergences += diverged as usize;
            if block == "dense" && c.algo.name() == "ours" {
                dense_tx = tx;
            }
            if block == "depthwise" && c.algo.name() == "ours" {
                dw_tx = tx;
            }
            let ratio = if dense_tx > 0 {
                format!("{:.3}x", tx as f64 / dense_tx as f64)
            } else {
                "-".into()
            };
            println!(
                "{:<12} {:<18} {:>14} {:>12.2} {:>8}",
                block,
                c.algo.name(),
                tx,
                secs * 1e6,
                ratio
            );
            rows.push(format!(
                "{{\"row\":\"depthwise\",\"profile\":\"{profile}\",\"block\":\"{block}\",\
                 \"algo\":\"{}\",\"mode\":\"{engine}\",\"host_parallelism\":{},\"seed\":{seed},\
                 \"transactions\":{tx},\"modeled_seconds\":{secs:.9},\"diverged\":{diverged}}}",
                c.algo.name(),
                host_parallelism(),
            ));
        }
    }
    let dw_below_dense = dw_tx < dense_tx;
    println!(
        "depthwise vs dense ours: {:.3}x ({} — must be strictly < 1)",
        dw_tx as f64 / dense_tx.max(1) as f64,
        if dw_below_dense { "ok" } else { "FAIL" }
    );

    // Panels 2 + 3: stride and dilation sweeps on the paper's kernel.
    for axis in ["stride", "dilation"] {
        println!("\n-- {axis} sweep (ours, 3x3, C={channels}) --");
        println!(
            "{:<6} {:>8} {:>14} {:>10}",
            axis, "out", "transactions", "vs 1"
        );
        let mut unit_tx = 0u64;
        for v in 1..=3usize {
            let base = ConvGeometry::nchw(1, channels, spatial, spatial, channels, 3, 3);
            let g = if axis == "stride" {
                base.with_stride(v, v)
            } else {
                base.with_dilation(v, v)
            }
            .validate()
            .expect("sweep geometry");
            let c = &contenders()[0];
            let (tx, secs, diverged) = run_cell(c, &g, seed ^ v as u64, mode);
            divergences += diverged as usize;
            if v == 1 {
                unit_tx = tx;
            }
            println!(
                "{:<6} {:>5}x{:<3} {:>14} {:>9.3}x",
                v,
                g.out_h(),
                g.out_w(),
                tx,
                tx as f64 / unit_tx.max(1) as f64
            );
            rows.push(format!(
                "{{\"row\":\"{axis}\",\"profile\":\"{profile}\",\"value\":{v},\
                 \"mode\":\"{engine}\",\"host_parallelism\":{},\"seed\":{seed},\
                 \"out_h\":{},\"transactions\":{tx},\"modeled_seconds\":{secs:.9},\
                 \"diverged\":{diverged}}}",
                host_parallelism(),
                g.out_h(),
            ));
        }
    }

    // Panel 4: extended-zoo divergence check against the CPU reference.
    println!("\n-- extended-zoo divergence check --");
    println!(
        "{:<36} {:<16} {:>14} {:>9}",
        "geometry", "algo", "transactions", "verdict"
    );
    for (label, g) in extended_zoo(spatial, channels, filter_cap) {
        let g = g.validate().expect("zoo geometry");
        for c in contenders() {
            if !c.algo.supports_shape(&g) {
                continue;
            }
            let (tx, _, diverged) = run_cell(&c, &g, seed ^ 0x200D, mode);
            divergences += diverged as usize;
            println!(
                "{:<36} {:<16} {:>14} {:>9}",
                label,
                c.algo.name(),
                tx,
                if diverged { "DIVERGED" } else { "ok" }
            );
            rows.push(format!(
                "{{\"row\":\"zoo\",\"profile\":\"{profile}\",\"geometry\":\"{}\",\
                 \"algo\":\"{}\",\"mode\":\"{engine}\",\"host_parallelism\":{},\"seed\":{seed},\
                 \"transactions\":{tx},\"diverged\":{diverged}}}",
                g.cache_key(),
                c.algo.name(),
                host_parallelism(),
            ));
        }
    }

    let gate_pass = divergences == 0 && dw_below_dense;
    println!(
        "\ngate: {} (divergences {divergences}, depthwise < dense: {dw_below_dense})",
        if gate_pass { "PASS" } else { "FAIL" }
    );
    rows.push(format!(
        "{{\"row\":\"_summary\",\"profile\":\"{profile}\",\"mode\":\"{engine}\",\
         \"host_parallelism\":{},\"seed\":{seed},\"divergences\":{divergences},\
         \"depthwise_tx\":{dw_tx},\"dense_tx\":{dense_tx},\"gate_pass\":{gate_pass}}}",
        host_parallelism(),
    ));

    let path = string_flag("--out").unwrap_or_else(|| "BENCH_geom.json".to_string());
    if let Err(e) = append_json_rows(&path, &rows) {
        eprintln!("failed to write {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {path}");

    if gate && !gate_pass {
        std::process::exit(1);
    }
}
