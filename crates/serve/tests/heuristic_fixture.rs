//! The oracle heuristic's picks, pinned bit for bit.
//!
//! `plan_nchw_heuristic` scores every registry candidate with one phantom
//! run and keeps the lowest roofline score. Both planners (the graph
//! executor and the serving fleet) answer cold geometries from it, so any
//! change to phantom execution that moved a score would move a plan, and
//! with it every modeled metric downstream. This test recomputes the pick
//! and the whole trial log — candidate labels in trial order, scores as
//! `f64::to_bits` — for the conv layers of the network zoo (capped as the
//! graph tests cap them) at batch 1 and 2, plus a stride-2 dense and a
//! stride-2 depthwise 3×3 geometry, under two sampling bounds, and asserts
//! them against `fixtures/heuristic_picks.txt`.

use memconv::gpusim::{DeviceConfig, SampleMode};
use memconv::tensor::ConvGeometry;
use memconv::workloads::{network_zoo, NetLayer};
use memconv_serve::plan_nchw_heuristic;

const FIXTURE: &str = include_str!("fixtures/heuristic_picks.txt");

/// Every conv geometry of the capped zoo chains at `batch`, in chain order,
/// then the two strided 3×3 geometries.
fn geometries(batch: usize) -> Vec<ConvGeometry> {
    let mut out = Vec::new();
    for net in network_zoo() {
        let net = net.capped(20, 4);
        let mut cur = (net.in_channels, net.spatial, net.spatial);
        for (layer, next) in net.layers.iter().zip(net.shapes()) {
            let (c, h, w) = cur;
            match *layer {
                NetLayer::Conv {
                    filters,
                    filter,
                    stride,
                    ..
                } => out.push(
                    ConvGeometry::nchw(batch, c, h, w, filters, filter, filter)
                        .with_stride(stride, stride),
                ),
                NetLayer::DepthwiseConv { filter, stride, .. } => out.push(
                    ConvGeometry::nchw(batch, c, h, w, c, filter, filter)
                        .with_stride(stride, stride)
                        .with_groups(c),
                ),
                NetLayer::MaxPool { .. } => {}
            }
            cur = next;
        }
    }
    out.push(ConvGeometry::nchw(batch, 8, 17, 17, 8, 3, 3).with_stride(2, 2));
    out.push(
        ConvGeometry::nchw(batch, 8, 17, 17, 8, 3, 3)
            .with_stride(2, 2)
            .with_groups(8),
    );
    out
}

/// One fixture line per (sample, geometry): the pick and the trial log.
fn pick_lines() -> Vec<String> {
    let dev = DeviceConfig::rtx2080ti();
    let mut lines = Vec::new();
    for target in [64, 256] {
        let mut seen = std::collections::BTreeSet::new();
        for batch in [1, 2] {
            for g in geometries(batch) {
                if !seen.insert(g.cache_key()) {
                    continue;
                }
                let outcome = plan_nchw_heuristic(&dev, &g, SampleMode::Auto(target))
                    .unwrap_or_else(|e| panic!("{}: {e:?}", g.cache_key()));
                let p = &outcome.plan;
                let trials: Vec<String> = outcome
                    .trials
                    .iter()
                    .map(|(label, score)| format!("{label}={:016x}", score.to_bits()))
                    .collect();
                lines.push(format!(
                    "auto{target} {} pick={}/{:?}={:016x} {}",
                    g.cache_key(),
                    p.algo,
                    p.config,
                    p.modeled_seconds.to_bits(),
                    trials.join(" ")
                ));
            }
        }
    }
    lines
}

#[test]
fn heuristic_picks_and_scores_are_pinned() {
    let got = pick_lines();
    let want: Vec<&str> = FIXTURE.lines().filter(|l| !l.is_empty()).collect();
    let diff: Vec<String> = got
        .iter()
        .zip(want.iter().copied().chain(std::iter::repeat("<missing>")))
        .filter(|(g, w)| g.as_str() != *w)
        .map(|(g, w)| format!("want {w}\n got {g}"))
        .collect();
    assert!(
        diff.is_empty() && got.len() == want.len(),
        "{} of {} lines differ ({} fixture lines):\n{}\n--- full output ---\n{}",
        diff.len(),
        got.len(),
        want.len(),
        diff.join("\n"),
        got.join("\n")
    );
}
