//! Input generator and in-process tracer for the `chc` benchmark.
//!
//! ```text
//! perfbench gen   --workload <name> --seed <n> --out <dir> [--scale full|tiny]
//! perfbench trace --dir <dir>
//! ```
//!
//! `gen` writes a workload's inputs plus `requests.json`, the list of
//! `chc` invocations the benchmark runs with the answer each must give;
//! the answers come from the generators' own bookkeeping. `trace`
//! replays the same requests in-process, timing each layer's public
//! calls with spans of its own, and prints the per-layer figures as one
//! JSON object.

mod gen;
mod trace;

use std::process::ExitCode;

/// Same allocator as the `chc` binary, so allocation costs match and
/// `chc_obs::memalloc::probe` can attribute bytes.
#[global_allocator]
static ALLOC: chc_obs::memalloc::TrackingAllocator = chc_obs::memalloc::TrackingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => gen::main(&args[1..]),
        Some("trace") => trace::main(&args[1..]),
        _ => Err("usage: perfbench <gen|trace> ...".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(2)
        }
    }
}

/// The value following `flag` in `args`, if present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
