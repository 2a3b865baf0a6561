//! `perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a table of the workload's metrics and, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`
//! (end-to-end metrics with `--trace 0`, per-layer ones with
//! `--trace 1`). Exits non-zero when any output check fails.

use perisec_perfbench::{child_main, parent_main, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let code = match args.child {
        Some((role, index)) => child_main(&args, role, index),
        None => parent_main(&args),
    };
    std::process::exit(code);
}
