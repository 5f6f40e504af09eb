//! Journal format stability: a small sealed journal written through both
//! live paths — `FleetService::process` and a `FleetStream` — must
//! reproduce the committed fixture under `tests/fixtures/journal_format/`
//! byte for byte, segments and seal sidecars alike, and the committed
//! fixture must still parse, verify and recover.
//!
//! The fixture holds every entry kind (a cadence checkpoint, a posting's
//! Run/Invoice/Verdict triple, single Accepted and Run commits, a pump's
//! receipt pair and a poison verdict) in one-segment-per-commit sealed
//! segments, so a change to line framing, chain links, commit grouping,
//! rotation or sealing fails here first.

use std::path::{Path, PathBuf};

use trustmeter::prelude::*;

const SEED: u64 = 77;
const SCALE: f64 = 0.001;

/// The committed reference journal.
fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/journal_format")
}

/// A one-byte segment budget: every commit rotates, so each commit is
/// its own sealed segment and the sidecars pin the commit grouping.
fn segment_config() -> SegmentConfig {
    SegmentConfig::default()
        .with_segment_bytes(1)
        .with_seal(SEED)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "trustmeter-journal-format-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::attacked(0, TenantId(1), Workload::LoopO, SCALE, AttackSpec::Shell),
        JobSpec::clean(1, TenantId(2), Workload::ALL[1], SCALE),
        JobSpec::attacked(
            2,
            TenantId(1),
            Workload::ALL[2],
            SCALE,
            AttackSpec::Scheduling { nice: -10 },
        ),
        JobSpec::clean(3, TenantId(2), Workload::ALL[3], SCALE),
        JobSpec::clean(4, TenantId(1), Workload::LoopO, SCALE),
        JobSpec::clean(5, TenantId(2), Workload::ALL[1], SCALE),
    ]
}

/// A fresh service with the fixture's tenants and rate cards.
fn service(journal: Option<Journal>) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(2, SEED));
    if let Some(journal) = journal {
        service = service
            .with_journal(journal)
            .with_checkpoint_cadence(CheckpointCadence::every_n_runs(3));
    }
    for id in 1..=2u32 {
        service.register(Tenant::new(
            TenantId(id),
            format!("tenant-{id}"),
            RateCard::per_cpu_second(0.01),
        ));
    }
    service
}

/// Keeps the injected poison panics out of the test output.
fn quiet_injected_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.contains("injected worker fault") {
                previous(info);
            }
        }));
    });
}

/// Writes the reference journal into `dir` and returns the service that
/// wrote it. Every commit's grouping is fixed: the stream runs one job at
/// a time, so no pump ever sees more than one released record.
fn write_reference_journal(dir: &Path) -> FleetService {
    quiet_injected_panics();
    let jobs = jobs();
    let journal = Journal::segmented(dir, segment_config()).unwrap();
    let mut service = service(Some(journal.clone()));
    // Three posting triples; the cadence checkpoint after the third
    // retires them and leads the live directory.
    service.process(&jobs[..3]);
    service.process(&jobs[3..4]);
    let poison = jobs[5].id;
    let config = IngestConfig::new(2)
        .with_supervisor(SupervisorPolicy::default().with_max_job_attempts(2))
        .with_worker_faults(WorkerFaultSchedule::none().poison_on(poison));
    let mut stream = service.stream(config);
    stream.submit(jobs[4].clone()).unwrap();
    while stream.verdicts().is_empty() {
        stream.pump();
        std::thread::yield_now();
    }
    stream.submit(jobs[5].clone()).unwrap();
    while stream.poisoned().is_empty() {
        stream.pump();
        std::thread::yield_now();
    }
    stream.finish();
    journal.seal().unwrap();
    service
}

/// The directory's files, sorted by name, with their bytes.
fn read_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn writer_reproduces_the_committed_journal_bytes() {
    let dir = scratch_dir("write");
    write_reference_journal(&dir);
    let written = read_files(&dir);
    let fixture = read_files(&fixture_dir());
    let names = |files: &[(String, Vec<u8>)]| -> Vec<String> {
        files.iter().map(|(name, _)| name.clone()).collect()
    };
    assert_eq!(names(&written), names(&fixture), "segment and seal files");
    for ((name, bytes), (_, expected)) in written.iter().zip(&fixture) {
        assert!(
            bytes == expected,
            "{name} differs from the fixture:\n--- written\n{}\n--- fixture\n{}",
            String::from_utf8_lossy(bytes),
            String::from_utf8_lossy(expected)
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn committed_journal_parses_verifies_and_recovers() {
    // Work on a copy: opening a segment directory may repair it.
    let dir = scratch_dir("read");
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = read_files(&fixture_dir());
    for (name, bytes) in &fixture {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let seals = fixture
        .iter()
        .filter(|(name, _)| name.ends_with(".seal"))
        .count() as u64;

    let journal = Journal::segmented(&dir, segment_config()).unwrap();
    let (entries, tail) = journal.entries().unwrap();
    assert_eq!(tail, TailStatus::Clean);
    let labels: Vec<&str> = entries.iter().map(JournalEntry::label).collect();
    assert_eq!(
        labels,
        [
            "checkpoint",
            "run",
            "invoice",
            "verdict",
            "accepted",
            "run",
            "invoice",
            "verdict",
            "accepted",
            "poisoned",
        ]
    );
    let verification = journal.verify(SEED).unwrap();
    assert_eq!(verification.entries, entries.len() as u64);
    assert_eq!(verification.tail, TailStatus::Clean);
    assert!(seals > 0);
    assert_eq!(verification.seals_verified, seals);

    // Recovery from the fixture lands on the live writer's state.
    let mut recovered = service(None);
    let report = recovered.recover_latest(&entries).unwrap();
    assert!(report.is_consistent());
    assert_eq!(report.checkpoint_runs, 3);
    assert_eq!(report.runs_replayed, 2);
    assert_eq!(report.poisoned, 1);
    assert!(report.unreleased.is_empty());
    let live_dir = scratch_dir("live");
    let live = write_reference_journal(&live_dir);
    assert_eq!(recovered.ledger(), live.ledger());
    assert_eq!(
        metering_exposition(&recovered.metrics_text()),
        metering_exposition(&live.metrics_text())
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&live_dir).unwrap();
}
