//! Oracle-vs-measured prediction gate over the first-party model zoo.
//!
//! ```sh
//! cargo run --release -p memconv-bench --bin predict                  # full table
//! cargo run --release -p memconv-bench --bin predict -- --gate --json
//! cargo run --release -p memconv-bench --bin predict -- --filter VGG
//! cargo run --release -p memconv-bench --bin predict -- --mode parallel
//! ```
//!
//! For every zoo layer × serving-registry kernel, the symbolic oracle
//! predicts the paper's memory metrics from a data-free phantom run
//! (`memconv::oracle::predict_nchw`), then the same kernel runs for real
//! on random data; the transaction signature (global/local
//! requests+transactions, shared-memory accesses and bank-conflict
//! passes) must match **bit-for-bit**, the closed-form affine
//! re-derivation must agree with the simulator at every access site, and
//! no first-party kernel may contain a data-dependent address stream. The
//! `shuffle-dynamic` baseline (Fig. 1b) is the positive control: its
//! dynamically indexed private array must be flagged data-dependent.
//!
//! `--filter <substr>` restricts rows to kernels/layers whose name
//! contains the substring; `--gate` exits 1 on any misprediction, any
//! unexpected data-dependent site, or a missed positive control; `--json`
//! appends one row per (layer, kernel, engine) to `BENCH_predict.json`
//! (identity-deduped, so re-runs refresh in place); `--mode parallel`
//! checks the multicore trace-replay engine instead.
//!
//! Each row times its two halves apart: `predict_s` is the oracle's
//! planning cost (the phantom run and the affine fit), `measure_s` the
//! measured run it is checked against. Both are host seconds, printed in
//! the table's last two columns; `wall_clock_s` in the JSON is their sum.
//! The last line sums both columns over the zoo rows and prints their
//! ratio — the oracle's cost against the runs it predicts, on this host,
//! for the engine that ran. It is printed only, never gated.

use memconv::gpusim::LaunchMode;
use memconv::oracle::{predict_2d, predict_nchw, transaction_signature, Prediction};
use memconv::prelude::*;
use memconv::workloads::models::model_zoo;
use memconv_bench::{
    append_json_rows, apply_harness_flags, harness_launch_mode, harness_sample, host_parallelism,
    string_flag,
};
use std::time::Instant;

/// One predicted-vs-measured comparison, ready for the table and the gate.
struct Row {
    figure: String,
    kernel: String,
    predicted: [u64; 9],
    measured: [u64; 9],
    exact: bool,
    consistent: bool,
    data_dependent: bool,
    /// Host seconds of the oracle's prediction (phantom run and fit).
    predict_s: f64,
    /// Host seconds of the measured run on random data.
    measure_s: f64,
}

impl Row {
    fn signature_match(&self) -> bool {
        self.predicted == self.measured
    }

    /// A first-party kernel mispredicts if any evidence layer disagrees.
    fn mispredicted(&self) -> bool {
        !self.signature_match() || !self.exact || !self.consistent
    }

    fn to_json(&self, mode: &str, threads: usize) -> String {
        format!(
            "{{\"figure\":\"{}\",\"kernel\":\"{}\",\"mode\":\"{mode}\",\"threads\":{threads},\
             \"host_parallelism\":{},\"wall_clock_s\":{:.6},\"predict_s\":{:.6},\
             \"measure_s\":{:.6},\
             \"global_transactions_predicted\":{},\"global_transactions_measured\":{},\
             \"smem_passes_predicted\":{},\"smem_passes_measured\":{},\
             \"signature_match\":{},\"closed_form_exact\":{},\"data_dependent\":{}}}",
            self.figure,
            self.kernel,
            host_parallelism(),
            self.predict_s + self.measure_s,
            self.predict_s,
            self.measure_s,
            self.predicted[1] + self.predicted[3],
            self.measured[1] + self.measured[3],
            self.predicted[8],
            self.measured[8],
            self.signature_match(),
            self.exact,
            self.data_dependent,
        )
    }
}

/// The serving registry's NCHW kernel families, one representative each.
fn kernels(sample: SampleMode) -> Vec<Box<dyn ConvNchwAlgorithm>> {
    vec![
        Box::new(Ours::with_config(OursConfig::full().with_sample(sample))),
        Box::new(TiledConv::new().with_sample(sample)),
        Box::new(DirectConv::new().with_sample(sample)),
        Box::new(Im2colGemm::caffe().with_sample(sample)),
    ]
}

/// Real run on random data; the oracle never sees these values.
fn measure_nchw(
    algo: &dyn ConvNchwAlgorithm,
    device: &DeviceConfig,
    g: &ConvGeometry,
    mode: LaunchMode,
    seed: u64,
) -> KernelStats {
    let mut rng = TensorRng::new(seed);
    let input = rng.tensor(g.batch, g.in_channels, g.in_h, g.in_w);
    let bank = rng.filter_bank(g.out_channels, g.in_channels, g.f_h, g.f_w);
    let mut sim = GpuSim::new(device.clone()).with_launch_mode(mode);
    algo.run(&mut sim, &input, &bank).1.totals()
}

fn verdict(p: &Prediction) -> &'static str {
    if p.data_dependent() {
        "data-dep"
    } else if p.is_exact() {
        "affine"
    } else {
        "irregular"
    }
}

fn main() {
    apply_harness_flags();
    let args: Vec<String> = std::env::args().collect();
    let gate = args.iter().any(|a| a == "--gate");
    let emit_json = args.iter().any(|a| a == "--json");
    let filter = string_flag("--filter");
    let keep = |label: &str| filter.as_deref().is_none_or(|f| label.contains(f));

    let device = DeviceConfig::rtx2080ti();
    let sample = harness_sample();
    let mode = harness_launch_mode();
    let mode_name = match mode {
        LaunchMode::Sequential => "sequential",
        LaunchMode::Parallel => "parallel",
    };
    let threads = match mode {
        LaunchMode::Sequential => 1,
        LaunchMode::Parallel => memconv_par::num_threads(),
    };

    println!("=== symbolic oracle vs measured runs — {mode_name} engine ===");
    println!(
        "{:<28} {:<10} {:>14} {:>14} {:>6} {:>6} {:>9} {:>10} {:>10}",
        "layer",
        "kernel",
        "txn predicted",
        "txn measured",
        "sig",
        "exact",
        "verdict",
        "predict s",
        "measure s"
    );

    let mut rows: Vec<Row> = Vec::new();
    for m in model_zoo() {
        let figure = format!("predict/{}/{}", m.model, m.layer);
        let g = ConvGeometry::nchw(
            1,
            m.in_channels,
            m.spatial,
            m.spatial,
            m.filters,
            m.filter,
            m.filter,
        );
        for algo in kernels(sample) {
            let label = format!("{}@{figure}", algo.name());
            if !keep(&label) || !algo.supports_shape(&g) {
                continue;
            }
            let start = Instant::now();
            let p = match predict_nchw(algo.as_ref(), &device, &g, mode) {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("prediction failed for {label}: {e}");
                    std::process::exit(1);
                }
            };
            let predict_s = start.elapsed().as_secs_f64();
            let seed = (m.spatial as u64) << 8 | m.filter as u64;
            let start = Instant::now();
            let real = measure_nchw(algo.as_ref(), &device, &g, mode, seed);
            let measure_s = start.elapsed().as_secs_f64();
            let row = Row {
                figure: figure.clone(),
                kernel: algo.name().to_string(),
                predicted: transaction_signature(&p.stats()),
                measured: transaction_signature(&real),
                exact: p.is_exact(),
                consistent: p.consistent,
                data_dependent: p.data_dependent(),
                predict_s,
                measure_s,
            };
            println!(
                "{:<28} {:<10} {:>14} {:>14} {:>6} {:>6} {:>9} {:>10.4} {:>10.4}",
                format!("{}/{}", m.model, m.layer),
                row.kernel,
                row.predicted[1] + row.predicted[3],
                row.measured[1] + row.measured[3],
                if row.signature_match() { "ok" } else { "MISS" },
                if row.exact { "ok" } else { "MISS" },
                verdict(&p),
                row.predict_s,
                row.measure_s,
            );
            rows.push(row);
        }
    }

    // Positive control: the Fig. 1b baseline's dynamically indexed private
    // array must surface as a data-dependent verdict — if the oracle ever
    // stops flagging it, exactness claims elsewhere are meaningless.
    let control_label = "shuffle-dynamic@predict/control";
    let control = if keep(control_label) {
        let g = ConvGeometry::single(32, 32, 3);
        let start = Instant::now();
        match predict_2d(&ShuffleDynamic::new(), &device, &g, mode) {
            Ok(p) => {
                let predict_s = start.elapsed().as_secs_f64();
                let flagged = p.data_dependent();
                println!(
                    "{:<28} {:<10} {:>14} {:>14} {:>6} {:>6} {:>9} {:>10.4} {:>10}",
                    "control/32x32 f3",
                    "shuffle",
                    "-",
                    "-",
                    "-",
                    "-",
                    verdict(&p),
                    predict_s,
                    "-"
                );
                if emit_json {
                    rows.push(Row {
                        figure: "predict/control".into(),
                        kernel: "shuffle-dynamic".into(),
                        predicted: transaction_signature(&p.stats()),
                        measured: transaction_signature(&p.stats()),
                        exact: p.is_exact(),
                        consistent: p.consistent,
                        data_dependent: flagged,
                        predict_s,
                        measure_s: 0.0,
                    });
                }
                Some(flagged)
            }
            Err(e) => {
                eprintln!("positive control failed to run: {e}");
                std::process::exit(1);
            }
        }
    } else {
        None
    };

    let first_party = |r: &&Row| r.kernel != "shuffle-dynamic";
    let mispredictions = rows
        .iter()
        .filter(first_party)
        .filter(|r| r.mispredicted())
        .count();
    let unexpected_dd = rows
        .iter()
        .filter(first_party)
        .filter(|r| r.data_dependent)
        .count();
    let checked = rows.iter().filter(first_party).count();
    println!(
        "\n{checked} predictions checked: {mispredictions} mispredicted, \
         {unexpected_dd} unexpected data-dependent site(s), positive control {}",
        match control {
            Some(true) => "flagged (ok)",
            Some(false) => "MISSED",
            None => "skipped by --filter",
        }
    );

    let gate_pass =
        checked > 0 && mispredictions == 0 && unexpected_dd == 0 && control != Some(false);
    println!("gate: {}", if gate_pass { "PASS" } else { "FAIL" });

    if emit_json {
        let items: Vec<String> = rows.iter().map(|r| r.to_json(mode_name, threads)).collect();
        let path = "BENCH_predict.json";
        if let Err(e) = append_json_rows(path, &items) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path} ({} rows)", items.len());
    }

    let predict_s: f64 = rows.iter().filter(first_party).map(|r| r.predict_s).sum();
    let measure_s: f64 = rows.iter().filter(first_party).map(|r| r.measure_s).sum();
    if checked > 0 {
        println!(
            "oracle cost, {mode_name} engine: predict {predict_s:.3} s, measure {measure_s:.3} s, \
             ratio {:.2} over {checked} rows",
            predict_s / measure_s
        );
    }

    if gate && !gate_pass {
        std::process::exit(1);
    }
}
