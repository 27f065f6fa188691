//! `sti` — the command-line face of the reproduction.
//!
//! ```text
//! sti preprocess --task sst2 --out /tmp/store      # cloud-side sharding+quantization
//! sti profile    --device jetson                   # §5.2 capability tables
//! sti plan       --task sst2 --target-ms 200 --preload-kb 16
//! sti infer      --task sst2 --store /tmp/store --text "i loved it"
//! sti generate   --task sst2 --text "note to self" --steps 5
//! sti serve      --task sst2 --sessions 8 --engagements 4  # multi-client serving trace
//! ```

#![warn(unreachable_pub)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{}", commands::usage());
        return ExitCode::SUCCESS;
    }
    match args::Args::parse(argv).and_then(|a| commands::dispatch(&a)) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{}", commands::usage());
            ExitCode::FAILURE
        }
    }
}
