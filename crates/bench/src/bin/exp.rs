//! Regenerates the paper's tables and figures: `exp -- tab5` for one
//! report, `exp -- all` for every one in a single pass (sharing the
//! importance cache and task contexts via the on-disk cache). An unknown
//! name lists what there is and exits non-zero.

use std::process::ExitCode;

use sti_bench::{experiments as e, harness};

/// One named experiment: a report name and the function regenerating it.
type Experiment = (&'static str, fn() -> String);

/// Every experiment, in the order `all` runs them.
const ALL: [Experiment; 15] = [
    ("tab2", e::tab2::run),
    ("tab3", e::tab3::run),
    ("tab4", e::tab4::run),
    ("fig6", e::fig6::run),
    ("motivation", e::motivation::run),
    ("storage_overhead", e::storage_overhead::run),
    ("fig5", e::fig5::run),
    ("fig1", e::fig1::run),
    ("fig7", e::fig7::run),
    ("fig8", e::fig8::run),
    ("tab6", e::tab6::run),
    ("tab5", e::tab5::run),
    ("tab7", e::tab7::run),
    ("sensitivity", e::sensitivity::run),
    ("ablation", e::ablation::run),
];

fn main() -> ExitCode {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<Experiment> = match wanted.as_slice() {
        [all] if all == "all" => ALL.to_vec(),
        [name] => ALL.iter().copied().filter(|(known, _)| known == name).collect(),
        _ => Vec::new(),
    };
    if selected.is_empty() {
        let names: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!("usage: exp <name> | all\nexperiments: {}", names.join(" "));
        return ExitCode::FAILURE;
    }
    for (name, run) in selected {
        eprintln!("[exp] running {name} ...");
        harness::emit(name, &run());
    }
    eprintln!("[exp] done; reports in {}", harness::results_dir().display());
    ExitCode::SUCCESS
}
