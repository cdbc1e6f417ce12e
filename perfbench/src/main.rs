//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints an environment line, any workload notes, and as its last line
//! the JSON result. Exits 1 when a correctness check failed, 2 on bad
//! arguments.

use perfbench::envinfo::env_line;
use perfbench::metrics::{json_str, result_line, END_TO_END, PER_LAYER};
use perfbench::{run, Args};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        std::process::exit(2);
    }
    println!(
        "{}",
        env_line(args.workload.name(), args.seed, args.trace, args.smoke, &args.scratch)
    );
    let outcome = run(&args);
    for note in &outcome.notes {
        println!("{note}");
    }
    for v in &outcome.violations {
        eprintln!("perfbench: check failed: {v}");
        println!("{{\"violation\": {}}}", json_str(v));
    }
    let specs = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_line(&outcome, specs));
    if !outcome.correct {
        std::process::exit(1);
    }
}
