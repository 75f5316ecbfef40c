//! Phantom execution's span path against its per-lane path.
//!
//! Under phantom execution a lane run (`LaneRun`) of `gld`/`gst` counts its
//! transactions from the span's two ends, records the request with its
//! known affine form and checks its bounds once. The per-lane path it
//! replaced — lane addresses, the coalescer (`phantom_access`), a fit of
//! the lane values (`SymBlockCollector::record`) and a per-lane bounds
//! check — is kept here as the oracle. On both launch engines the two must
//! give the same `KernelStats`, the same `SymReport` and the same panic
//! text; the stream digests agree too, since a request's digest depends on
//! its lane values alone.

use memconv_gpusim::memory::{phantom_access, Space};
use memconv_gpusim::sym::{PredictModel, SymBlockCollector};
use memconv_gpusim::{
    AccessClass, DeviceConfig, GpuSim, KernelStats, LaneMask, LaunchConfig, LaunchError,
    LaunchMode, PhantomConfig, SiteId, SymReport, VF, VU, WARP,
};
use proptest::prelude::*;

/// One warp request of the test kernel: lanes `lo..lo + n` over elements
/// `start..start + n` of the buffer — a lane run — or, with `hole`, the
/// same lanes but one, which no span path takes.
#[derive(Debug, Clone, Copy)]
struct Req {
    store: bool,
    lo: usize,
    n: usize,
    start: u32,
    hole: Option<usize>,
}

impl Req {
    fn mask(&self) -> LaneMask {
        let run = LaneMask::from_fn(|l| (self.lo..self.lo + self.n).contains(&l));
        match self.hole {
            Some(h) => LaneMask(run.0 & !(1 << h)),
            None => run,
        }
    }

    /// Lane indices; inactive lanes hold junk no path may look at.
    fn idx(&self) -> VU {
        VU::from_fn(|l| {
            if (self.lo..self.lo + self.n).contains(&l) {
                self.start.wrapping_add((l - self.lo) as u32)
            } else {
                0xDEAD_0000 | l as u32
            }
        })
    }
}

/// Requests from drawn words: runs of 1–32 lanes with masked heads and
/// tails, inside a buffer of `len` elements or (one in eight) starting
/// anywhere up to 40 elements past its end.
fn requests(raw: &[u64], len: usize) -> Vec<Req> {
    raw.iter()
        .map(|&r| {
            let lo = (r >> 1) as usize % WARP;
            let n = (1 + (r >> 8) as usize % WARP).min(WARP - lo);
            let hole = (r >> 16) as usize % 64;
            let starts = if (r >> 24) & 7 == 0 {
                len + 40
            } else {
                len.saturating_sub(n) + 1
            };
            Req {
                store: r & 1 == 1,
                lo,
                n,
                start: ((r >> 32) % starts as u64) as u32,
                hole: (hole & 3 == 0 && n >= 3).then(|| lo + 1 + hole / 4 % (n - 2)),
            }
        })
        .collect()
}

/// The test device: `test_tiny` with 64-byte lines, so one warp's run of
/// 128 bytes spans up to three lines.
fn device() -> DeviceConfig {
    DeviceConfig {
        line_bytes: 64,
        ..DeviceConfig::test_tiny()
    }
}

/// The requests block `b` of a launch makes: block 0 all of them, each
/// later block all but a different third, so blocks see different sites
/// and different request streams.
fn block_requests(reqs: &[Req], b: usize) -> impl Iterator<Item = &Req> {
    reqs.iter()
        .enumerate()
        .filter(move |(i, _)| b == 0 || !(i + b).is_multiple_of(3))
        .map(|(_, r)| r)
}

/// The requests as one phantom launch of `blocks` one-warp blocks on
/// `mode`: the launch's outcome and its symbolic report.
fn phantom_launch(
    len: usize,
    reqs: &[Req],
    blocks: usize,
    mode: LaunchMode,
) -> (Result<KernelStats, LaunchError>, SymReport) {
    let mut sim = GpuSim::new(device()).with_launch_mode(mode);
    sim.set_parallel_threads(Some(2));
    sim.set_phantom(Some(PhantomConfig::default()));
    let buf = sim.mem.upload(&vec![0.0; len]);
    let cfg = LaunchConfig::linear(blocks as u32, WARP as u32);
    let got = sim.try_launch(&cfg, |blk| {
        let b = blk.block_linear() as usize;
        blk.each_warp(|w| {
            for r in block_requests(reqs, b) {
                if r.store {
                    w.gst(buf, &r.idx(), &VF::splat(1.0), r.mask());
                } else {
                    w.gld(buf, &r.idx(), r.mask());
                }
            }
        });
    });
    (got, sim.take_sym_report().expect("phantom armed"))
}

/// The per-lane phantom path, as the simulator took it for every request
/// before lane runs had a span path, with a fresh symbolic collector per
/// block merged block-linearly: the launch's counters (or the panic text
/// of the first out-of-bounds lane) and the symbolic report, with
/// placeholder sites.
fn per_lane(len: usize, reqs: &[Req], blocks: usize) -> (Result<KernelStats, String>, SymReport) {
    let dev = device();
    let mut sim = GpuSim::new(dev.clone());
    let buf = sim.mem.upload(&vec![0.0; len]);
    let mut stats = KernelStats {
        launches: 1,
        threads: (blocks * WARP) as u64,
        sim_blocks: blocks as u64,
        ..KernelStats::default()
    };
    let model = PredictModel::Sectors {
        sector_bytes: dev.sector_bytes as u64,
    };
    let mut launch = SymBlockCollector::default();
    for b in 0..blocks {
        let mut block = SymBlockCollector::for_block();
        if let Err(text) = per_lane_block(
            &sim,
            buf,
            len,
            block_requests(reqs, b),
            &mut stats,
            &mut block,
            model,
        ) {
            return (Err(text), SymReport::default());
        }
        launch.merge(&block);
    }
    (Ok(stats), launch.into_report())
}

/// One block's requests on the per-lane path, into `stats` and `block`;
/// the panic text of the first out-of-bounds lane, if any.
fn per_lane_block<'r>(
    sim: &GpuSim,
    buf: memconv_gpusim::BufId,
    len: usize,
    reqs: impl Iterator<Item = &'r Req>,
    stats: &mut KernelStats,
    block: &mut SymBlockCollector,
    model: PredictModel,
) -> Result<(), String> {
    let dev = &sim.device;
    for r in reqs {
        let (mask, idx) = (r.mask(), r.idx());
        let mut addrs = [0u64; WARP];
        for l in mask.lanes() {
            addrs[l] = sim.mem.addr(buf, idx.lane(l));
        }
        let txns = phantom_access(dev, stats, &addrs, mask, r.store, Space::Global);
        let (site, class) = site_of(r.store);
        block.record(site, class, &addrs, mask, txns, model, false);
        // Loads read their lanes ascending, stores write them descending.
        let mut lanes: Vec<usize> = mask.lanes().collect();
        if r.store {
            lanes.reverse();
        }
        if let Some(l) = lanes.into_iter().find(|&l| idx.lane(l) as usize >= len) {
            let what = if r.store { "write" } else { "read" };
            // The buffer is the simulator's first, buffer 0.
            return Err(format!(
                "device {what} OOB: buffer 0 has {len} elems, index {}",
                idx.lane(l)
            ));
        }
    }
    Ok(())
}

/// The placeholder site of the oracle's loads or stores.
fn site_of(store: bool) -> (SiteId, AccessClass) {
    let site = SiteId {
        file: "per_lane",
        line: 1 + u32::from(store),
        column: 1,
    };
    let class = if store {
        AccessClass::GlobalStore
    } else {
        AccessClass::GlobalLoad
    };
    (site, class)
}

/// A report with every site replaced by the oracle's placeholder for its
/// class (the test kernel has one load site and one store site).
fn placeholder_sites(mut rep: SymReport) -> SymReport {
    for s in &mut rep.sites {
        s.site = site_of(s.class == AccessClass::GlobalStore).0;
    }
    rep.sites.sort_by_key(|s| (s.site, s.class));
    rep
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Counters, symbolic report and panic text of the span path equal the
    /// per-lane path's, on both engines, for launches of 1–3 blocks whose
    /// request streams differ.
    #[test]
    fn span_path_matches_per_lane_path(
        len in 1usize..200,
        raw in prop::collection::vec(any::<u64>(), 1..12),
        blocks in 1usize..4,
    ) {
        let reqs = requests(&raw, len);
        let (want, want_sym) = per_lane(len, &reqs, blocks);
        for mode in [LaunchMode::Sequential, LaunchMode::Parallel] {
            let (got, sym) = phantom_launch(len, &reqs, blocks, mode);
            match (&got, &want) {
                (Ok(g), Ok(w)) => {
                    prop_assert_eq!(g, w, "{:?}", mode);
                    prop_assert_eq!(placeholder_sites(sym), want_sym.clone(), "{:?}", mode);
                }
                (Err(LaunchError::OutOfBounds(g)), Err(w)) => {
                    prop_assert_eq!(g, w, "{:?}", mode);
                }
                _ => panic!("{mode:?}: span path {got:?}, per-lane path {want:?}"),
            }
        }
    }
}

/// The span path covers what it claims: every lane-run request is
/// recorded as an affine stride-4 form (or a one-lane point), and each
/// request costs the sectors from its span's first byte to its last.
#[test]
fn lane_runs_are_priced_from_their_span() {
    let reqs = [
        Req {
            store: false,
            lo: 0,
            n: 32,
            start: 0,
            hole: None,
        },
        Req {
            store: false,
            lo: 3,
            n: 20,
            start: 13,
            hole: None,
        },
        Req {
            store: false,
            lo: 31,
            n: 1,
            start: 7,
            hole: None,
        },
    ];
    let (got, sym) = phantom_launch(64, &reqs, 1, LaunchMode::Sequential);
    let stats = got.expect("in bounds");
    // 128 B aligned: 4 sectors; 80 B from byte 52: bytes 52..131, sectors
    // 1 to 4; one lane: 1 sector.
    assert_eq!(stats.gld_transactions, 4 + 4 + 1);
    let site = &sym.sites[0];
    assert_eq!(site.form, memconv_gpusim::SiteForm::Affine { stride: 4 });
    assert_eq!(
        (site.requests, site.predicted_requests, site.mismatches),
        (3, 3, 0)
    );
}

/// A load whose run starts at a loaded value: its stream digest follows
/// the canary, so two phantom runs under different canaries tell the
/// data-dependent site apart from the fixed one — the differential check
/// the oracle's `consistent` verdict rests on, through the span path.
#[test]
fn span_path_digests_follow_a_value_dependent_address() {
    let hashes = |canary: f32| {
        let mut sim = GpuSim::new(device()).with_phantom(PhantomConfig { canary });
        let buf = sim.mem.upload(&[0.0; 256]);
        sim.launch(&LaunchConfig::linear(1, WARP as u32), |blk| {
            blk.each_warp(|w| {
                let first = w.gld(buf, &VU::lane_id(), LaneMask::ALL);
                let at = first.lane(0) as u32;
                let idx = VU::from_fn(|l| at + l as u32);
                w.gld(buf, &idx, LaneMask::ALL);
            });
        });
        let rep = sim.take_sym_report().expect("phantom armed");
        assert_eq!(rep.sites.len(), 2);
        assert!(rep.is_exact());
        rep.sites.iter().map(|s| s.stream_hash).collect::<Vec<_>>()
    };
    let (one, five) = (hashes(1.0), hashes(5.0));
    assert_eq!(one[0], five[0], "the fixed run's digest");
    assert_ne!(one[1], five[1], "the run at a loaded index");
    assert_eq!(hashes(1.0), one, "digests are deterministic");
}
