//! The benchmark command.
//!
//! ```sh
//! python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints a metrics table, a provenance line and, last, one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when any item failed its check, 2 on bad arguments.

use memconv_perfbench::{report, run, RunConfig, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: memconv-perfbench --workload <{}> --seed <u64> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn value<T: std::str::FromStr>(args: &[String], flag: &str) -> T {
    let Some(i) = args.iter().position(|a| a == flag) else {
        usage(&format!("missing {flag}"));
    };
    match args.get(i + 1).map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => usage(&format!("{flag} needs a valid value")),
    }
}

fn main() {
    // The CPU reference has no thread knob but this one; pin it before
    // anything can spawn a worker. Fleet and executor threads are pinned
    // in their configurations.
    std::env::set_var("MEMCONV_THREADS", "1");
    let args: Vec<String> = std::env::args().collect();
    let workload: String = value(&args, "--workload");
    let seed: u64 = value(&args, "--seed");
    let seconds: f64 = value(&args, "--seconds");
    let traced = match value::<u8>(&args, "--trace") {
        0 => false,
        1 => true,
        _ => usage("--trace must be 0 or 1"),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage("--seconds must be positive");
    }
    let cfg = RunConfig {
        seed,
        seconds,
        traced,
    };
    let out = match run(&workload, &cfg) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{workload}: {e}");
            std::process::exit(1);
        }
    };
    for &(name, unit) in report::registry(traced) {
        println!("{name:<36} {:>16.6} {unit}", out.get(name).unwrap_or(0.0));
    }
    println!(
        "provenance: nproc={} MEMCONV_THREADS={} fleet.workers=1 \
         graph.parallel_threads=1 launch_mode=sequential workload={workload} \
         seed={seed} seconds={seconds} trace={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        std::env::var("MEMCONV_THREADS").unwrap_or_default(),
        u8::from(traced)
    );
    println!("{}", report::result_json(&out, traced));
    if !out.correct() {
        std::process::exit(1);
    }
}
