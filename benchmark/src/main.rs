//! `sti-benchmark`: `run`, `selftest`, `compare`, `list`.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use sti_benchmark::bench::{Options, RunParams};
use sti_benchmark::{compare, run, selftest, spec};

const USAGE: &str = "usage:
  sti-benchmark run --workload NAME --seed N [--seconds S] [--trace 0|1]
                    [--trace-out PATH] [--out RECORDS] [--quick]
      One run. --trace 0 (default) prints the end-to-end metrics, --trace 1
      the per-layer metrics and writes a Chrome trace. --out appends the
      run's record to a file for `compare`. --quick runs 1/50 of the length
      after a single set-up (a smoke run, not a measurement).
  sti-benchmark selftest [--seed N] [--seconds S]
      Sensitivity and non-degeneracy checks at one-eighth length.
  sti-benchmark compare A B
      Two record files: medians and quartiles per workload and metric;
      simulated metrics must match exactly, host medians within bound.
  sti-benchmark list [--json]
      Workloads and metrics; --json prints BENCHMARK.json.";

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.0.iter().position(|a| a == name) {
            Some(i) => {
                self.0.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        match self.0.iter().position(|a| a == name) {
            Some(i) if i + 1 < self.0.len() => {
                self.0.remove(i);
                Ok(Some(self.0.remove(i)))
            }
            Some(_) => Err(format!("{name} needs a value")),
            None => Ok(None),
        }
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        match self.value(name)? {
            Some(v) => v.parse().map(Some).map_err(|_| format!("{name}: cannot read '{v}'")),
            None => Ok(None),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
            None => Ok(()),
        }
    }
}

fn seconds(args: &mut Args) -> Result<f64, String> {
    let s: f64 = args.parsed("--seconds")?.unwrap_or(spec::RUN_SECONDS as f64);
    if s.is_finite() && (0.1..=600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("--seconds must be within 0.1..=600, got {s}"))
    }
}

fn cmd_run(mut args: Args) -> Result<bool, String> {
    let name = args.value("--workload")?.ok_or("run needs --workload")?;
    let workload =
        spec::workload(&name).ok_or_else(|| format!("unknown workload '{name}' (see `list`)"))?;
    let seed: u64 = args.parsed("--seed")?.ok_or("run needs --seed")?;
    let seconds = seconds(&mut args)?;
    let trace = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, got '{other}'")),
    };
    let trace_out = args.value("--trace-out")?.map(PathBuf::from);
    let out = args.value("--out")?.map(PathBuf::from);
    let quick = args.flag("--quick");
    let length = if quick { 0.02 } else { 1.0 };
    args.done()?;

    let p = RunParams { workload, seed, seconds, opts: Options { length, ..Options::default() } };
    let outcome = if trace {
        let path = trace_out.unwrap_or_else(|| run::default_trace_path(&p));
        run::per_layer(&p, &path).map_err(|e| format!("writing {}: {e}", path.display()))?
    } else {
        run::end_to_end(&p, if quick { 1 } else { run::SETUPS })
    };
    if let Some(path) = out {
        let line = compare::record_line(workload.name, seed, trace, &outcome.result_json());
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{line}"))
            .map_err(|e| format!("appending to {}: {e}", path.display()))?;
    }
    outcome.print();
    Ok(outcome.correct)
}

fn cmd_selftest(mut args: Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds = seconds(&mut args)?;
    args.done()?;
    let (lines, pass) = selftest::run(seed, seconds);
    for line in lines {
        println!("{line}");
    }
    println!("selftest {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}

fn cmd_compare(args: Args) -> Result<bool, String> {
    let [a, b] = args.0.as_slice() else {
        return Err("compare takes two record files".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| compare::parse_records(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (report, pass) = compare::compare(&read(a)?, &read(b)?);
    print!("{report}");
    println!("compare {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}

fn cmd_list(mut args: Args) -> Result<bool, String> {
    let json = args.flag("--json");
    args.done()?;
    if json {
        print!("{}", spec::benchmark_json());
        return Ok(true);
    }
    println!("workloads:");
    for w in &spec::WORKLOADS {
        println!("  {:<16} {}", w.name, w.why);
    }
    println!("end-to-end metrics (name, unit, kind, better, bound):");
    for m in &spec::END_TO_END {
        println!(
            "  {:<22} {:<10} {:<5} {:<7} {:<5} {}",
            m.name,
            m.unit,
            m.kind.label(),
            m.better.label(),
            m.bound.unwrap_or(0.0),
            m.why
        );
    }
    println!("per-layer metrics (name, unit, kind, better):");
    for m in &spec::PER_LAYER {
        println!(
            "  {:<38} {:<8} {:<5} {:<7} {}",
            m.name,
            m.unit,
            m.kind.label(),
            m.better.label(),
            m.why
        );
    }
    Ok(true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    let command = argv.remove(0);
    let args = Args(argv);
    let result = match command.as_str() {
        "run" => cmd_run(args),
        "selftest" => cmd_selftest(args),
        "compare" => cmd_compare(args),
        "list" => cmd_list(args),
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
