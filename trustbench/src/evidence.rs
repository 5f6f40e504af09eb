//! The read side of the evidence ledger, as an outside auditor runs it:
//! reopen a sealed segment directory in a fresh service, parse, recover,
//! verify every seal and settle disputes from inclusion proofs — then check
//! each result against the service that billed the jobs.

use std::path::Path;
use std::time::{Duration, Instant};

use trustmeter_fleet::{
    metering_exposition, FleetService, JobId, JobSpec, Journal, JournalEntry, Ledger, SealKey,
};

use crate::{median, sealed_config, service, Outcome};

/// Disputes settled per evidence round, spread evenly over the jobs the
/// recovered journal still holds.
const DISPUTES: usize = 8;

/// What the evidence rounds measured.
#[derive(Debug, Default)]
pub struct Evidence {
    /// Per round: reopen + parse + `recover_latest`, seconds.
    pub recover_s: Vec<f64>,
    /// Per round: `Journal::verify`, seconds.
    pub verify_s: Vec<f64>,
    /// Per dispute: `FleetService::dispute`, ms.
    pub dispute_ms: Vec<f64>,
    /// Per round: the median of its disputes, ms.
    pub round_dispute_ms: Vec<f64>,
    /// Per round: the parse alone, seconds, and the entries it returned.
    pub parse_s: Vec<f64>,
    pub entries: u64,
    /// Per round: `recover_latest` alone, seconds.
    pub replay_s: Vec<f64>,
    /// Seals `Journal::verify` checked in the last round.
    pub seals: u64,
    /// Per dispute (traced runs only): `Journal::prove`, ms, and each
    /// proof's `InclusionProof::verify`, µs.
    pub prove_ms: Vec<f64>,
    pub proof_verify_us: Vec<f64>,
    /// Disputes settled, and the proofs they carried.
    pub settled: u64,
    pub proofs: u64,
}

impl Evidence {
    /// Proofs per settled dispute.
    pub fn proofs_per_dispute(&self) -> f64 {
        self.proofs as f64 / self.settled.max(1) as f64
    }

    /// The per-round and per-dispute samples, by name.
    fn series(&mut self) -> [(&'static str, &mut Vec<f64>); 8] {
        [
            ("recover_s", &mut self.recover_s),
            ("verify_s", &mut self.verify_s),
            ("dispute_ms", &mut self.dispute_ms),
            ("round_dispute_ms", &mut self.round_dispute_ms),
            ("parse_s", &mut self.parse_s),
            ("replay_s", &mut self.replay_s),
            ("prove_ms", &mut self.prove_ms),
            ("proof_verify_us", &mut self.proof_verify_us),
        ]
    }

    /// Everything measured, one `name value...` line per field, for
    /// [`Evidence::add_line`] in another process.
    pub fn to_text(&mut self) -> String {
        let mut text = format!(
            "entries {}\nseals {}\nsettled {}\nproofs {}\n",
            self.entries, self.seals, self.settled, self.proofs
        );
        for (name, values) in self.series() {
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            text += &format!("{name} {}\n", values.join(" "));
        }
        text
    }

    /// Adds one line of [`Evidence::to_text`]: samples and settled
    /// disputes accumulate, the journal's entries and seals are replaced.
    pub fn add_line(&mut self, name: &str, values: &str) {
        let count = || values.parse::<u64>().unwrap_or(0);
        match name {
            "entries" => self.entries = count(),
            "seals" => self.seals = count(),
            "settled" => self.settled += count(),
            "proofs" => self.proofs += count(),
            _ => {
                if let Some((_, series)) = self.series().into_iter().find(|(n, _)| *n == name) {
                    series.extend(
                        values
                            .split_whitespace()
                            .filter_map(|v| v.parse::<f64>().ok()),
                    );
                }
            }
        }
    }
}

/// Writes `jobs` through the batch API of a fresh 1-shard service into a
/// sealed journal at `dir`, one `process` call per job, and seals the
/// head. Returns the service, the per-call latencies in ms and the time
/// the final seal took.
pub fn write_journal(
    dir: &Path,
    seed: u64,
    jobs: &[JobSpec],
) -> (FleetService, Vec<f64>, Duration) {
    let _ = std::fs::remove_dir_all(dir);
    let journal = Journal::segmented(dir, sealed_config(seed)).expect("open evidence journal");
    let mut writer = service(1, seed).with_journal(journal.clone());
    let mut latency_ms = Vec::with_capacity(jobs.len());
    for job in jobs {
        let started = Instant::now();
        writer.process(std::slice::from_ref(job));
        latency_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let started = Instant::now();
    journal.seal().expect("seal evidence journal head");
    (writer, latency_ms, started.elapsed())
}

/// Runs evidence rounds over the sealed journal at `dir` — at least
/// `min_rounds`, and more until `budget` has passed — adding what they
/// measured to `ev`. `shards` must match the fleet that wrote the journal.
/// Recovery must reproduce `writer`'s ledger and metering exposition byte
/// for byte; every dispute must settle the invoice `billed` holds for the
/// job.
#[allow(clippy::too_many_arguments)]
pub fn rounds(
    dir: &Path,
    shards: usize,
    seed: u64,
    writer: &FleetService,
    billed: &Ledger,
    min_rounds: usize,
    budget: Duration,
    traced: bool,
    ev: &mut Evidence,
    out: &mut Outcome,
) {
    let live_metering = metering_exposition(&writer.metrics_text());
    let key = SealKey::from_seed(seed);
    let start = Instant::now();
    let mut round = 0;
    while round < min_rounds || start.elapsed() < budget {
        round += 1;
        let started = Instant::now();
        let journal = Journal::segmented(dir, sealed_config(seed)).expect("reopen journal");
        let mut recovered = service(shards, seed).with_journal(journal.clone());
        let parse_started = Instant::now();
        let parsed = journal.entries();
        ev.parse_s.push(parse_started.elapsed().as_secs_f64());
        let Ok((entries, tail)) = parsed else {
            out.check(false, || format!("parse journal: {parsed:?}"));
            return;
        };
        let replay_started = Instant::now();
        let report = recovered.recover_latest(&entries);
        let done = Instant::now();
        ev.replay_s.push((done - replay_started).as_secs_f64());
        ev.recover_s.push((done - started).as_secs_f64());
        ev.entries = entries.len() as u64;
        out.check(!tail.is_truncated(), || format!("journal tail {tail:?}"));
        out.check(report.as_ref().is_ok_and(|r| r.is_consistent()), || {
            format!("recovery: {report:?}")
        });
        out.check(recovered.ledger() == writer.ledger(), || {
            "recovered ledger differs from the live ledger".into()
        });
        out.check(
            metering_exposition(&recovered.metrics_text()) == live_metering,
            || "recovered metering exposition differs from the live one".into(),
        );

        let started = Instant::now();
        let verified = journal.verify(seed);
        ev.verify_s.push(started.elapsed().as_secs_f64());
        let headers = journal.sealed_headers().map(|h| h.len() as u64);
        match (&verified, &headers) {
            (Ok(v), Ok(headers)) => {
                ev.seals = v.seals_verified;
                out.check(v.seals_verified == *headers && *headers > 0, || {
                    format!("verified {} of {headers} seals", v.seals_verified)
                });
                out.check(v.entries == entries.len() as u64, || {
                    format!("verify walked {} of {} entries", v.entries, entries.len())
                });
            }
            _ => out.check(false, || format!("verify: {verified:?} / {headers:?}")),
        }

        let runs: Vec<JobId> = entries
            .iter()
            .filter_map(|entry| match entry {
                JournalEntry::Run(record) => Some(record.job.id),
                _ => None,
            })
            .collect();
        out.check(runs.len() >= DISPUTES, || {
            format!("only {} disputable runs in the journal", runs.len())
        });
        let first_dispute = ev.dispute_ms.len();
        for k in 0..DISPUTES.min(runs.len()) {
            let job = runs[k * runs.len() / DISPUTES];
            out.attempted += 1;
            let started = Instant::now();
            let resolution = recovered.dispute(job);
            ev.dispute_ms.push(started.elapsed().as_secs_f64() * 1e3);
            let Ok(resolution) = resolution else {
                out.fail(format!("dispute {job}: {resolution:?}"));
                continue;
            };
            let posting = billed.iter().find_map(|account| {
                account
                    .invoices
                    .iter()
                    .find(|(id, _, _)| *id == job)
                    .map(|(_, b, t)| (account.tenant, b, t))
            });
            let agrees = resolution.runs == 1
                && resolution.invoice.as_ref().is_some_and(|invoice| {
                    posting == Some((invoice.tenant, &invoice.billed, &invoice.truth))
                });
            if agrees {
                ev.settled += 1;
                ev.proofs += resolution.proofs.len() as u64;
            } else {
                out.fail(format!(
                    "dispute {job} settled {resolution:?}, ledger holds {posting:?}"
                ));
            }
            if traced {
                let started = Instant::now();
                let again = journal.prove(job);
                ev.prove_ms.push(started.elapsed().as_secs_f64() * 1e3);
                for proof in again.iter().flatten() {
                    let started = Instant::now();
                    let ok = proof.verify(&key).is_ok();
                    ev.proof_verify_us
                        .push(started.elapsed().as_secs_f64() * 1e6);
                    out.check(ok, || format!("proof for job {job} does not verify"));
                }
            }
        }
        ev.round_dispute_ms
            .push(median(&ev.dispute_ms[first_dispute..]));
    }
}
