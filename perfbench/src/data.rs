//! The workloads' inputs, kept here as data so that a change elsewhere in
//! the repository (a zoo edit, a new Fig. 3 size) cannot silently change
//! what the benchmark measures.
//!
//! Shapes come from the paper (Fig. 3 sizes, Table I layers) and from the
//! repository's model zoo, scaled down where noted so that one run stays
//! inside its time budget. Every shape listed here is distinct: duplicates
//! would add host time without adding a geometry.

/// Block-sampling target for the `figures` launches. The figure harnesses
/// default to 1024 sampled blocks; 64 fits about thirty passes in a 35 s
/// run, so each item's fastest time is taken over many samples spread
/// across the run. Against 1024 blocks, transactions per item move by
/// 0.7% and modeled time per item by 3.4%.
pub const FIG_SAMPLE_TARGET: u64 = 64;

/// One single-channel 2D point of Fig. 3: a `side`-high image of one of
/// `widths` (the seed picks which) and a square filter.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Label in reports.
    pub label: &'static str,
    /// Image height.
    pub side: usize,
    /// Image widths, one 32-byte sector apart. At [`FIG_SAMPLE_TARGET`]
    /// every algorithm simulates the same blocks at each 2K² width; at the
    /// 512² ones the GEMM launches (GEMM-im2col, cuDNN's gemm) differ by
    /// 7% and the others by at most 4%. So the seed moves the modeled
    /// figures but hardly the host work. Widths whose sampled block counts
    /// differ more (2064 against 2072 doubles some) would let the seed,
    /// not the program, set `items_per_s`.
    pub widths: &'static [usize],
    /// Filter size.
    pub filter: usize,
}

/// The Fig. 3 subset: one image that fits the RTX 2080 Ti's 5.5 MB L2
/// with its output (512², 1 MB each) and one that does not (2K², 16 MB
/// each), covering both filter sizes of the figure.
pub const FIG3_POINTS: [Fig3Point; 2] = [
    Fig3Point {
        label: "512x512/5x5",
        side: 512,
        widths: &[512, 520],
        filter: 5,
    },
    Fig3Point {
        label: "2Kx2K/3x3",
        side: 2048,
        widths: &[2056, 2064],
        filter: 3,
    },
];

/// One Table I layer (Fig. 4 setting), run at one input channel.
#[derive(Debug, Clone, Copy)]
pub struct Table1Layer {
    /// Table I name.
    pub name: &'static str,
    /// Batch.
    pub batch: usize,
    /// Square input size.
    pub spatial: usize,
    /// Output filter counts; the seed picks one, as it picks a
    /// [`Fig3Point`]'s width. Ours and the cuDNN algorithms simulate the
    /// same blocks at each (within 1.2% on FFT and tiling); GEMM-im2col,
    /// a few-millisecond item, simulates 22% more at 65. Its modeled time
    /// is the workload's slowest and reads the same at any count up to 64,
    /// so 65 is what lets the seed move `latency_p99_ms`.
    pub filters: &'static [usize],
    /// Filter size.
    pub filter: usize,
}

/// The Table I subset: CONV3 is the cheapest layer to simulate across
/// the whole cuDNN family. Its batch is fixed: a batch of 125 to 127
/// doubles the blocks some cuDNN algorithms simulate at
/// [`FIG_SAMPLE_TARGET`].
pub const TABLE1_LAYERS: [Table1Layer; 1] = [Table1Layer {
    name: "CONV3",
    batch: 128,
    spatial: 12,
    filters: &[64, 65],
    filter: 5,
}];

/// Unsampled check inputs for the `figures` algorithms: image size for
/// the 2D points, and `(batch, filters)` for the Table I layers (at the
/// layer's own spatial size).
pub const FIG_CHECK_IMAGE: (usize, usize) = (40, 48);
/// See [`FIG_CHECK_IMAGE`].
pub const FIG_CHECK_LAYER: (usize, usize) = (2, 8);

/// A service-level objective: the highest rate of `rates_per_s` at which
/// at least `share` of the requests complete correctly within
/// `limit_ms` is the workload's `slo_rate_rps`.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    /// Fixed arrival rates to try, ascending, requests per virtual second.
    pub rates_per_s: &'static [f64],
    /// Latency limit, modeled milliseconds.
    pub limit_ms: f64,
    /// Share of requests that must meet the limit.
    pub share: f64,
}

/// Arrivals fed through the virtual queue of a closed-loop workload's SLO
/// check (the item sequence repeats until this many have arrived).
pub const SLO_ARRIVALS: usize = 1000;

/// `figures` SLO: items arrive one at a time on a single modeled device.
pub const FIGURES_SLO: Slo = Slo {
    rates_per_s: &[250.0, 500.0, 1000.0, 2000.0, 4000.0],
    limit_ms: 10.0,
    share: 0.99,
};

/// One serving endpoint: an unpadded, unit-stride convolution with batch 1.
#[derive(Debug, Clone, Copy)]
pub struct ServeEndpoint {
    /// Endpoint name (`model/layer` of the zoo layer it is scaled from).
    pub name: &'static str,
    /// Input channels.
    pub in_channels: usize,
    /// Square input size.
    pub spatial: usize,
    /// Output filters.
    pub filters: usize,
    /// Filter size.
    pub filter: usize,
    /// Popularity weight in the request mix.
    pub weight: usize,
}

/// The model-zoo layers as endpoints, scaled down so that every request
/// can be simulated unsampled and verified on the CPU. The fleet serves
/// unit stride only (a strided endpoint would be served at stride 1), so
/// MobileNet's stride-2 stem is listed at stride 1 with its own shape.
pub const SERVE_ENDPOINTS: [ServeEndpoint; 6] = [
    ServeEndpoint {
        name: "VGG-16/conv1_1",
        in_channels: 3,
        spatial: 16,
        filters: 8,
        filter: 3,
        weight: 8,
    },
    ServeEndpoint {
        name: "ResNet-18/conv2_x",
        in_channels: 3,
        spatial: 12,
        filters: 8,
        filter: 3,
        weight: 5,
    },
    ServeEndpoint {
        name: "AlexNet/conv2",
        in_channels: 1,
        spatial: 14,
        filters: 8,
        filter: 5,
        weight: 3,
    },
    ServeEndpoint {
        name: "GoogLeNet/inception3a-5x5",
        in_channels: 3,
        spatial: 12,
        filters: 4,
        filter: 5,
        weight: 2,
    },
    ServeEndpoint {
        name: "VGG-16/conv2_1",
        in_channels: 3,
        spatial: 10,
        filters: 16,
        filter: 3,
        weight: 1,
    },
    ServeEndpoint {
        name: "MobileNet/conv1",
        in_channels: 3,
        spatial: 18,
        filters: 4,
        filter: 3,
        weight: 1,
    },
];

/// Requests in the timed `serve` trace (a multiple of [`SERVE_CHUNK`]):
/// enough that its p99 latency moves little between seeds.
pub const SERVE_REQUESTS: usize = 4096;
/// Requests of the trace (a prefix) replayed at each faster SLO rate.
pub const SERVE_PROBE_REQUESTS: usize = 1024;
/// Requests per timed `run_trace` call: four batching windows, so the
/// chunked replay forms exactly the windows one call would.
pub const SERVE_CHUNK: usize = 64;
/// The endpoint and priority order repeats every this many requests (a
/// multiple of [`SERVE_CHUNK`] dividing [`SERVE_REQUESTS`]): each timed
/// chunk repeats the work of 15 others, which steadies the host-time
/// estimate, while four distinct chunks keep the modeled figures close to
/// those of an unrepeated mix.
pub const SERVE_PATTERN: usize = 256;
/// Fleet batching window.
pub const SERVE_WINDOW: usize = 16;
/// Fleet shards (RTX 2080 Ti each).
pub const SERVE_SHARDS: usize = 2;
/// Nominal arrival rate of the timed trace, requests per virtual second.
pub const SERVE_RATE_RPS: f64 = 200_000.0;
/// Virtual time at which the timed trace starts; the plan-cache warm-up
/// runs at time 0 and must finish before it.
pub const SERVE_T0_S: f64 = 1.0;
/// Virtual-time shift between the timed passes, which replay the trace
/// on one fleet: far longer than a replay, so no pass inherits another's
/// busy clocks.
pub const SERVE_EPOCH_S: f64 = 1.0;
/// Virtual-time start of the capacity probe's `k`-th replay: `k ×` this,
/// past every timed pass.
pub const SERVE_PROBE_EPOCH_S: f64 = 1024.0;
/// Priority mix of the trace, per 10 requests: high, normal, batch.
pub const SERVE_PRIORITY_MIX: (usize, usize, usize) = (2, 6, 2);

/// `serve` SLO: the nominal rate first; the faster rates are replayed on
/// the fleet after the timed phase.
pub const SERVE_SLO: Slo = Slo {
    rates_per_s: &[200_000.0, 400_000.0, 800_000.0, 3_200_000.0],
    limit_ms: 0.1,
    share: 0.99,
};

/// One layer of a whole-model chain. Every convolution adds a bias and
/// applies ReLU, as the published networks do.
#[derive(Debug, Clone, Copy)]
pub enum ChainLayer {
    /// Dense valid convolution.
    Conv {
        /// Layer name.
        name: &'static str,
        /// Output filters.
        filters: usize,
        /// Filter size (square).
        filter: usize,
        /// Stride (both axes).
        stride: usize,
    },
    /// Depthwise valid convolution (one filter per channel).
    Depthwise {
        /// Layer name.
        name: &'static str,
        /// Filter size (square).
        filter: usize,
        /// Stride (both axes).
        stride: usize,
    },
    /// `k×k` max-pool with stride `k`.
    Pool {
        /// Layer name.
        name: &'static str,
        /// Window and stride.
        k: usize,
    },
}

/// One whole-model chain.
#[derive(Debug, Clone, Copy)]
pub struct Chain {
    /// Model name.
    pub model: &'static str,
    /// Input channels.
    pub in_channels: usize,
    /// Input `(height, width)` choices; the seed picks one. Where there
    /// are two, the inference's host time differs by under 1.5% between
    /// them while its modeled time and transactions move, so the seed
    /// does not set `items_per_s`.
    pub inputs: &'static [(usize, usize)],
    /// The layers, in order.
    pub layers: &'static [ChainLayer],
    /// Popularity weight in the inference mix.
    pub weight: usize,
}

/// The five zoo chains, scaled down (spatial and filter counts) so that a
/// batch-2 inference takes milliseconds of host time. VGG-16 and ResNet-18
/// share a layer structure, so they keep distinct input sizes here;
/// MobileNet keeps its native strides. The seed picks the input shape of
/// VGG-16 (the median inference's model) and MobileNet (the slowest
/// modeled one), so that every modeled metric moves with it.
pub const GRAPH_CHAINS: [Chain; 5] = [
    Chain {
        model: "AlexNet",
        in_channels: 1,
        inputs: &[(16, 16)],
        layers: &[
            ChainLayer::Conv {
                name: "conv2",
                filters: 4,
                filter: 5,
                stride: 1,
            },
            ChainLayer::Conv {
                name: "conv3",
                filters: 6,
                filter: 3,
                stride: 1,
            },
            ChainLayer::Pool {
                name: "pool3",
                k: 2,
            },
        ],
        weight: 2,
    },
    Chain {
        model: "VGG-16",
        in_channels: 3,
        inputs: &[(18, 18), (17, 19)],
        layers: &[
            ChainLayer::Conv {
                name: "conv1_1",
                filters: 4,
                filter: 3,
                stride: 1,
            },
            ChainLayer::Conv {
                name: "conv1_2",
                filters: 4,
                filter: 3,
                stride: 1,
            },
            ChainLayer::Pool {
                name: "pool1",
                k: 2,
            },
        ],
        weight: 3,
    },
    Chain {
        model: "ResNet-18",
        in_channels: 3,
        inputs: &[(14, 14)],
        layers: &[
            ChainLayer::Conv {
                name: "conv2_1",
                filters: 8,
                filter: 3,
                stride: 1,
            },
            ChainLayer::Conv {
                name: "conv2_2",
                filters: 8,
                filter: 3,
                stride: 1,
            },
            ChainLayer::Pool {
                name: "pool2",
                k: 2,
            },
        ],
        weight: 2,
    },
    Chain {
        model: "GoogLeNet",
        in_channels: 3,
        inputs: &[(16, 16)],
        layers: &[
            ChainLayer::Conv {
                name: "3a-reduce",
                filters: 4,
                filter: 1,
                stride: 1,
            },
            ChainLayer::Conv {
                name: "3a-5x5",
                filters: 8,
                filter: 5,
                stride: 1,
            },
            ChainLayer::Pool {
                name: "3a-pool",
                k: 2,
            },
        ],
        weight: 1,
    },
    Chain {
        model: "MobileNet",
        in_channels: 3,
        inputs: &[(20, 20), (20, 21)],
        layers: &[
            ChainLayer::Conv {
                name: "conv1",
                filters: 4,
                filter: 3,
                stride: 2,
            },
            ChainLayer::Depthwise {
                name: "conv2-dw",
                filter: 3,
                stride: 1,
            },
            ChainLayer::Conv {
                name: "conv2-pw",
                filters: 8,
                filter: 1,
                stride: 1,
            },
            ChainLayer::Depthwise {
                name: "conv3-dw",
                filter: 3,
                stride: 2,
            },
            ChainLayer::Conv {
                name: "conv3-pw",
                filters: 8,
                filter: 1,
                stride: 1,
            },
        ],
        weight: 2,
    },
];

/// Whole-model inferences per pass.
pub const GRAPH_INFERENCES: usize = 1000;
/// Images per inference.
pub const GRAPH_BATCH: usize = 2;

/// `graph` SLO: inferences arrive one at a time on a single modeled device.
pub const GRAPH_SLO: Slo = Slo {
    rates_per_s: &[8_000.0, 16_000.0, 32_000.0, 128_000.0],
    limit_ms: 0.1,
    share: 0.99,
};

/// Set-ups per run at least (the median of them is `setup_s`).
pub const MIN_SETUPS: usize = 3;
/// Further set-ups are timed while the run's set-ups total less than this
/// many host seconds, up to [`MAX_SETUPS`]: a millisecond set-up is then
/// the median of many, a second-long one of [`MIN_SETUPS`].
pub const SETUP_BUDGET_S: f64 = 1.0;
/// Set-ups per run at most.
pub const MAX_SETUPS: usize = 15;
