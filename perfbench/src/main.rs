//! Benchmark of encrypted CNN inference, end to end and layer by layer.
//!
//! ```text
//! perfbench --workload <cnn1-single|cnn1-bulk|mini-serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload generates its inputs from `--seed`, measures for
//! `--seconds`, checks each decrypted answer against the plaintext
//! network, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it is the host fingerprint; a readable report goes
//! to stderr. See `README.md` for what each metric means.

mod check;
mod cnn1;
mod host;
mod layers;
mod report;
mod schedule;
mod serve;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const WORKLOADS: [&str; 3] = ["cnn1-single", "cnn1-bulk", "mini-serve"];
const USAGE: &str = "usage: perfbench --workload <cnn1-single|cnn1-bulk|mini-serve> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => match value.parse::<u64>().map_err(bad)? {
                s @ 1..=600 => seconds = Some(Duration::from_secs(s)),
                s => return Err(format!("--seconds {s} outside 1..=600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload measured and found.
#[derive(Default)]
pub struct Run {
    pub metrics: report::Metrics,
    pub tally: check::Tally,
    /// Failed checks; any makes the run not correct.
    pub errors: Vec<String>,
    /// Lines for the readable report.
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // One worker thread: with the vendored rayon's default of one
    // thread per core, walls on a 2-vCPU guest move 2-3x with the
    // hypervisor's steal (see README.md).
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let steal = host::StealMeter::start();
    let mut run = Run::default();
    match args.workload.as_str() {
        "cnn1-single" => cnn1::single(&args, &mut run),
        "cnn1-bulk" => cnn1::bulk(&args, &mut run),
        "mini-serve" => serve::run(&args, &mut run),
        _ => unreachable!("parse admits only known workloads"),
    }
    let expected = if args.trace {
        report::PER_LAYER
    } else {
        let rss = host::peak_rss_mb().expect("VmHWM in /proc/self/status");
        run.metrics.put("peak_rss_mb", rss, "MB");
        report::END_TO_END
    };
    if let Err(e) = run.metrics.check(expected) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    let trace_counters = !he_trace::OpSnapshot::now().is_zero();
    eprintln!(
        "{} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for n in &run.notes {
        eprintln!("  {n}");
    }
    for e in &run.errors {
        eprintln!("  CHECK FAILED: {e}");
    }
    eprintln!("{}", run.metrics.render());
    println!("{}", host::fingerprint_json(steal.share(), trace_counters));
    println!(
        "{}",
        run.metrics
            .result_json(run.errors.is_empty(), run.tally.sent, run.tally.failed())
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(String::from)
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse(argv(
            "--workload mini-serve --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("mini-serve", 7, Duration::from_secs(10), true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload mini-overload --seed 1 --seconds 1 --trace 0",
            "--workload mini-serve --seed x --seconds 1 --trace 0",
            "--workload mini-serve --seed 1 --seconds 0 --trace 0",
            "--workload mini-serve --seed 1 --seconds 1 --trace 2",
            "--workload mini-serve --seed 1 --seconds 1",
        ] {
            assert!(parse(argv(bad)).is_err(), "{bad}");
        }
    }
}
