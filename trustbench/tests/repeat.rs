//! Runs every workload twice with the same seed and checks that the
//! deterministic per-layer counts repeat exactly, and that another seed
//! changes the inputs. Slow in debug builds; run with
//! `cargo test --release --manifest-path trustbench/Cargo.toml`.

use std::path::PathBuf;

use trustbench::{drive, run, Bench, Outcome, Params, OPEN_RATE};
use trustmeter_fleet::{Fleet, FleetConfig, JobId};

/// Counts that depend only on the seed and the workload's fixed sizes.
const EXACT: [&str; 6] = [
    "kernel.ticks_per_job",
    "kernel.ctx_switches_per_job",
    "kernel.syscalls_per_job",
    "executor.reference_replays",
    "auditor.reference_hits",
    "evidence.proofs_per_dispute",
];

fn traced(bench: Bench, seed: u64, round: u32) -> Outcome {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("repeat-{}-{seed}-{round}", bench.name()));
    let params = Params {
        seed,
        seconds: 0.5,
        workers: 2,
        dir: dir.clone(),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_trustbench")),
    };
    let out = run(bench, &params, true);
    trustbench::remove_dir(&dir);
    assert!(out.correct(), "{}: {:?}", bench.name(), out.failures);
    out
}

fn value(out: &Outcome, name: &str) -> f64 {
    out.layers[name].0
}

fn assert_repeats(bench: Bench, names: &[&str]) {
    let (a, b) = (traced(bench, 7, 0), traced(bench, 7, 1));
    for name in names {
        assert_eq!(value(&a, name), value(&b, name), "{}: {name}", bench.name());
    }
    assert_eq!(value(&a, "auditor.inline_replays"), 0.0, "{}", bench.name());
}

#[test]
fn closed_sealed_counts_repeat() {
    let mut names = EXACT.to_vec();
    names.push("journal.entries");
    assert_repeats(Bench::ClosedSealed, &names);
}

#[test]
fn open_bare_counts_repeat() {
    assert_repeats(Bench::OpenBare, &EXACT);
}

#[test]
fn recover_dispute_counts_repeat() {
    assert_repeats(
        Bench::RecoverDispute,
        &[
            "journal.entries",
            "evidence.seals",
            "evidence.proofs_per_dispute",
        ],
    );
}

#[test]
fn another_seed_changes_the_inputs() {
    assert_eq!(
        drive::arrivals(7, OPEN_RATE, 1.0),
        drive::arrivals(7, OPEN_RATE, 1.0)
    );
    assert_ne!(
        drive::arrivals(7, OPEN_RATE, 1.0),
        drive::arrivals(8, OPEN_RATE, 1.0)
    );
    let (a, b) = (
        Fleet::new(FleetConfig::new(2, 7)),
        Fleet::new(FleetConfig::new(2, 8)),
    );
    assert!((0..64).all(|id| a.job_seed(JobId(id)) != b.job_seed(JobId(id))));
}
