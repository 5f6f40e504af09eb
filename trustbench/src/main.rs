//! Runs one `trustbench` workload and prints its metrics.
//!
//! ```text
//! trustbench --workload closed-sealed|open-bare|recover-dispute
//!            --seed N --seconds S --trace 0|1
//! trustbench --calibrate --seconds S
//! trustbench --audit JOBS --seed N --trace 0|1 --dir DIR
//! ```
//!
//! `--audit` runs one half of an outside auditor's evidence rounds for a
//! window of `JOBS` jobs and prints what they measured; a workload run
//! starts the benchmark this way for each half.
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 0 only when every
//! correctness check held.

use std::path::PathBuf;
use std::process::ExitCode;

use trustbench::{
    audit_half, calibrate, remove_dir, run, run_settled, Bench, Metrics, Outcome, Params,
};

const USAGE: &str = "usage: trustbench --workload closed-sealed|open-bare|recover-dispute \
                     --seed N --seconds S --trace 0|1 | --calibrate --seconds S";

struct Args {
    bench: Option<Bench>,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
    /// Run one half of an auditor's evidence rounds for a window of this
    /// many jobs (the benchmark starts itself this way).
    audit: Option<u64>,
    /// Scratch directory (default: one of its own under `.bench_work`).
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        bench: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
        audit: None,
        dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.bench =
                    Some(Bench::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--audit" => args.audit = Some(value.parse().map_err(|_| bad(()))?),
            "--dir" => args.dir = Some(PathBuf::from(value)),
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json(out: &Outcome, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let dir = args.dir.clone().unwrap_or_else(|| {
        PathBuf::from(".bench_work").join(format!("trustbench-{}", std::process::id()))
    });
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        workers: cores,
        dir: dir.clone(),
        exe: std::env::current_exe().unwrap_or_else(|_| "trustbench".into()),
    };
    if let Some(window_jobs) = args.audit {
        print!("{}", audit_half(&params, window_jobs, args.trace));
        remove_dir(&dir);
        return ExitCode::SUCCESS;
    }
    eprintln!(
        "trustbench: {cores} workers (available parallelism), seed {}",
        args.seed
    );
    if args.calibrate {
        let capacity = calibrate(&params);
        remove_dir(&dir);
        println!("journal-less closed-loop capacity: {capacity:.0} jobs/s");
        return ExitCode::SUCCESS;
    }
    let Some(bench) = args.bench else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    // Only the end-to-end figures are bounded, so only an untraced run is
    // made again when the host disturbed it.
    let out = if args.trace {
        let out = run(bench, &params, true);
        eprintln!(
            "host stole {:.1} % of the CPU time",
            out.steal_share * 100.0
        );
        out
    } else {
        run_settled(bench, &params)
    };
    let metrics = if args.trace {
        for line in &out.table {
            println!("{line}");
        }
        out.layers.clone()
    } else {
        out.e2e.clone()
    };
    remove_dir(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    for failure in &out.failures {
        eprintln!("check failed: {failure}");
    }
    println!("{}", json(&out, &metrics));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
