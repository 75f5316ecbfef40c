//! Counter fixture for the `ours` kernel: every entry point, on every
//! geometry class the kernel serves, must reproduce the launch counters
//! and output bits pinned in `fixtures/direct_counters.txt`.
//!
//! A line is one case — entry point, geometry key, `OursConfig`, sample
//! mode and epilogue — followed by the launch's full `KernelStats`
//! (`Debug`) and an FNV-1a 64 hash of the output bits. The lines were
//! recorded through `launch_conv_nchw_fused`, with the 2D cases run as
//! `N = IC = FN = 1` geometries, so a line pins its entry point to the
//! one launch body as well as to its own past counters. Each class walks
//! its cases through the entry points that accept them in turn, so every
//! entry point meets every class it serves.

use memconv_core::{
    conv2d_ours, conv2d_ours_padded, conv_nchw_ours, conv_nchw_ours_geo, launch_conv2d_ours,
    launch_conv_nchw_fused, launch_conv_nchw_ours, try_conv_nchw_ours, try_launch_conv_nchw_fused,
    Conv2dAlgorithm, ConvEpilogue, ConvNchwAlgorithm, Ours, OursConfig,
};
use memconv_gpusim::{GpuSim, KernelStats, SampleMode};
use memconv_tensor::{ConvGeometry, Filter2D, Image2D, Padding, TensorRng};
use std::collections::BTreeMap;

const FIXTURE: &str = include_str!("fixtures/direct_counters.txt");

/// The `ours` entry points, by the name a fixture line carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Entry {
    LaunchConvNchwFused,
    TryLaunchConvNchwFused,
    LaunchConvNchwOurs,
    ConvNchwOurs,
    TryConvNchwOurs,
    ConvNchwOursGeo,
    OursRun,
    OursRunGeo,
    Conv2dOurs,
    LaunchConv2dOurs,
    Conv2dOursPadded,
    OursRun2d,
}

struct Case {
    entry: Entry,
    g: ConvGeometry,
    cfg: &'static str,
    sample: SampleMode,
    bias_relu: bool,
}

/// The five kernel settings every class runs under.
fn config(name: &str) -> OursConfig {
    match name {
        "full" => OursConfig::full(),
        "column_only" => OursConfig::column_only(),
        "row_only" => OursConfig::row_only(),
        "direct" => OursConfig::direct(),
        "T1W8" => OursConfig {
            rows_per_thread: 1,
            block_warps: 8,
            ..OursConfig::full()
        },
        other => panic!("unknown config {other}"),
    }
}

const CONFIGS: [&str; 5] = ["full", "column_only", "row_only", "direct", "T1W8"];

fn padded(g: ConvGeometry, pad_h: usize, pad_w: usize) -> ConvGeometry {
    g.with_padding(Padding::Explicit(pad_h, pad_w))
        .expect("explicit padding")
}

/// Every case: each class's geometries under the five configs, the
/// class's entry points taken in turn.
fn cases() -> Vec<Case> {
    use Entry::*;
    let nchw = ConvGeometry::nchw;
    let single = ConvGeometry::single;
    let auto = SampleMode::Auto;
    // (geometries, sample mode, fused bias+ReLU, entry points in turn)
    let classes: Vec<(Vec<ConvGeometry>, SampleMode, bool, Vec<Entry>)> = {
        // The unit NCHW endpoints `serve` runs (VGG-16/conv1_1 at batch 4,
        // AlexNet/conv2 at batch 2).
        let serve = vec![
            nchw(4, 3, 16, 16, 8, 3, 3),
            nchw(1, 3, 12, 12, 8, 3, 3),
            nchw(2, 1, 14, 14, 8, 5, 5),
            nchw(1, 3, 12, 12, 4, 5, 5),
            nchw(1, 3, 10, 10, 16, 3, 3),
            nchw(1, 3, 18, 18, 4, 3, 3),
        ];
        let geometry = vec![
            // depthwise: stride 2, dilation 2, channel multiplier, padded
            nchw(1, 6, 13, 13, 6, 3, 3).with_groups(6).with_stride(2, 2),
            nchw(1, 6, 14, 14, 6, 3, 3)
                .with_groups(6)
                .with_dilation(2, 2),
            nchw(1, 3, 10, 10, 6, 3, 3).with_groups(3),
            padded(nchw(2, 4, 12, 12, 4, 3, 3).with_groups(4), 1, 1),
            padded(
                nchw(1, 3, 13, 13, 3, 3, 3).with_groups(3).with_stride(2, 2),
                1,
                1,
            ),
            // grouped, strided, dilated, the 11x11/4 stem, padded
            nchw(2, 4, 10, 10, 6, 3, 3).with_groups(2),
            nchw(2, 3, 13, 17, 2, 3, 3).with_stride(2, 3),
            nchw(1, 2, 14, 14, 2, 3, 3).with_dilation(2, 2),
            nchw(1, 3, 227, 227, 2, 11, 11).with_stride(4, 4),
            padded(nchw(1, 2, 12, 12, 3, 3, 3), 1, 1),
            padded(
                nchw(2, 4, 11, 13, 4, 3, 3)
                    .with_groups(2)
                    .with_stride(2, 2)
                    .with_dilation(2, 1),
                1,
                2,
            ),
        ];
        // The `extensions` strided stems.
        let stems = [(11, 4), (7, 2), (5, 2), (3, 2)]
            .map(|(f, s)| single(227, 227, f).with_stride(s, s))
            .to_vec();
        let padded_2d = vec![
            padded(single(64, 64, 3), 1, 1),
            padded(single(12, 12, 3), 2, 1),
            padded(single(17, 23, 5), 2, 2),
            padded(single(1, 64, 3), 4, 0),
        ];
        vec![
            (
                serve.clone(),
                SampleMode::Full,
                false,
                vec![
                    ConvNchwOurs,
                    TryConvNchwOurs,
                    LaunchConvNchwOurs,
                    OursRun,
                    OursRunGeo,
                    ConvNchwOursGeo,
                    LaunchConvNchwFused,
                ],
            ),
            (
                serve,
                SampleMode::Full,
                true,
                vec![LaunchConvNchwFused, TryLaunchConvNchwFused],
            ),
            (
                geometry.clone(),
                SampleMode::Full,
                false,
                vec![
                    ConvNchwOursGeo,
                    OursRunGeo,
                    LaunchConvNchwOurs,
                    LaunchConvNchwFused,
                ],
            ),
            (
                geometry,
                SampleMode::Full,
                true,
                vec![TryLaunchConvNchwFused, LaunchConvNchwFused],
            ),
            (
                vec![single(1024, 1024, 5)],
                auto(64),
                false,
                vec![Conv2dOurs, LaunchConv2dOurs, OursRun2d],
            ),
            (padded_2d, SampleMode::Full, false, vec![Conv2dOursPadded]),
            (
                stems,
                auto(1024),
                false,
                vec![ConvNchwOursGeo, OursRunGeo, LaunchConvNchwOurs],
            ),
        ]
    };
    let mut out = Vec::new();
    for (geometries, sample, bias_relu, entries) in classes {
        let mut turn = entries.iter().cycle();
        for g in geometries {
            let g = g.validate().expect("fixture geometry");
            for cfg in CONFIGS {
                out.push(Case {
                    entry: *turn.next().expect("a class has entry points"),
                    g,
                    cfg,
                    sample,
                    bias_relu,
                });
            }
        }
    }
    out
}

/// FNV-1a 64.
fn fnv64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Run one case through its entry point: the launch counters and the
/// output buffer.
fn run(case: &Case) -> (KernelStats, Vec<f32>) {
    let g = &case.g;
    let cfg = config(case.cfg).with_sample(case.sample);
    let mut rng = TensorRng::new(fnv64(g.cache_key().bytes()));
    let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = rng.filter_bank(g.out_channels, g.channels_per_group(), g.f_h, g.f_w);
    let bias: Vec<f32> = (0..g.out_channels)
        .map(|f| 0.125 * f as f32 - 0.5)
        .collect();
    let img = || Image2D::from_vec(g.in_h, g.in_w, input.as_slice().to_vec()).expect("2D input");
    let filt = || Filter2D::from_vec(g.f_h, g.f_w, bank.as_slice().to_vec()).expect("2D filter");
    let mut sim = GpuSim::rtx2080ti();
    let ours = Ours::with_config(cfg.clone());
    match case.entry {
        Entry::LaunchConvNchwFused
        | Entry::TryLaunchConvNchwFused
        | Entry::LaunchConvNchwOurs
        | Entry::LaunchConv2dOurs => {
            let bi = sim.mem.upload(input.as_slice());
            let bw = sim.mem.upload(bank.as_slice());
            let bo = sim.mem.alloc(g.out_elems());
            let ep = ConvEpilogue {
                bias: case.bias_relu.then(|| sim.mem.upload(&bias)),
                relu: case.bias_relu,
            };
            let stats = match case.entry {
                Entry::LaunchConvNchwFused => {
                    launch_conv_nchw_fused(&mut sim, bi, bw, bo, g, &cfg, ep)
                }
                Entry::TryLaunchConvNchwFused => {
                    try_launch_conv_nchw_fused(&mut sim, bi, bw, bo, g, &cfg, ep)
                        .expect("fixture launch")
                }
                Entry::LaunchConvNchwOurs => launch_conv_nchw_ours(&mut sim, bi, bw, bo, g, &cfg),
                _ => launch_conv2d_ours(&mut sim, bi, bw, bo, g.in_h, g.in_w, g.f_h, g.f_w, &cfg),
            };
            (stats, sim.mem.download(bo).to_vec())
        }
        Entry::ConvNchwOurs => {
            let (out, stats) = conv_nchw_ours(&mut sim, &input, &bank, &cfg);
            (stats, out.into_vec())
        }
        Entry::TryConvNchwOurs => {
            let (out, stats) =
                try_conv_nchw_ours(&mut sim, &input, &bank, &cfg).expect("fixture launch");
            (stats, out.into_vec())
        }
        Entry::ConvNchwOursGeo => {
            let (out, stats) = conv_nchw_ours_geo(&mut sim, &input, &bank, g, &cfg);
            (stats, out.into_vec())
        }
        Entry::OursRun => {
            let (out, rep) = ConvNchwAlgorithm::run(&ours, &mut sim, &input, &bank);
            (rep.totals(), out.into_vec())
        }
        Entry::OursRunGeo => {
            let (out, rep) = ours.run_geo(&mut sim, &input, &bank, g);
            (rep.totals(), out.into_vec())
        }
        Entry::Conv2dOurs => {
            let (out, stats) = conv2d_ours(&mut sim, &img(), &filt(), &cfg);
            (stats, out.into_vec())
        }
        Entry::Conv2dOursPadded => {
            let pad = Padding::Explicit(g.pad_h, g.pad_w);
            let (out, stats) = conv2d_ours_padded(&mut sim, &img(), &filt(), pad, &cfg);
            (stats, out.into_vec())
        }
        Entry::OursRun2d => {
            let (out, rep) = Conv2dAlgorithm::run(&ours, &mut sim, &img(), &filt());
            (rep.totals(), out.into_vec())
        }
    }
}

/// The case's identity: the first five fields of its line.
fn key(case: &Case) -> String {
    format!(
        "{:?} {} {} {:?} {}",
        case.entry,
        case.g.cache_key(),
        case.cfg,
        case.sample,
        if case.bias_relu { "bias+relu" } else { "none" }
    )
}

#[test]
fn every_entry_point_reproduces_its_counter_line() {
    let want: BTreeMap<String, &str> = FIXTURE
        .lines()
        .map(|l| (l.split(' ').take(5).collect::<Vec<_>>().join(" "), l))
        .collect();
    let cases = cases();
    assert_eq!(want.len(), cases.len(), "one fixture line per case");
    let mut wrong = Vec::new();
    for case in &cases {
        let (stats, out) = run(case);
        let bits = out.iter().flat_map(|v| v.to_bits().to_le_bytes());
        let got = format!("{} {stats:?} out={:016x}", key(case), fnv64(bits));
        match want.get(&key(case)) {
            Some(line) if *line == got => {}
            Some(line) => wrong.push(format!("want {line}\n got {got}")),
            None => wrong.push(format!("no line for {}", key(case))),
        }
    }
    assert!(
        wrong.is_empty(),
        "{} of {} cases moved:\n{}",
        wrong.len(),
        cases.len(),
        wrong.join("\n")
    );
}
