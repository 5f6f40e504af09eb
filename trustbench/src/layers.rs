//! Per-layer metrics and the layer table of a traced run.
//!
//! Three sources: the benchmark's own spans around its calls into the
//! ingest layer (see [`crate::drive::Window`]), the service's
//! `fleet_stage_seconds` histograms filled by the attached tracer, and an
//! isolation pass that feeds the workload's own job specs to the executor,
//! the attestation check and the auditor one at a time. A layer that does
//! no work in a workload reports 0.

use std::time::Instant;

use trustmeter_fleet::{
    Auditor, Fleet, FleetConfig, FleetService, IngestStats, JobSpec, JournalStats,
};

use crate::drive::Window;
use crate::evidence::Evidence;
use crate::{median, quantile, Outcome};

/// Jobs the isolation pass runs through each layer.
pub const ISOLATION_JOBS: u64 = 256;

/// Every per-layer metric and its unit.
const PER_LAYER: [(&str, &str); 34] = [
    ("executor.run_one_us", "us"),
    ("executor.reference_replays", "count"),
    ("kernel.ticks_per_job", "count"),
    ("kernel.ctx_switches_per_job", "count"),
    ("kernel.syscalls_per_job", "count"),
    ("attest.quote_verify_us", "us"),
    ("auditor.observe_us", "us"),
    ("auditor.inline_replays", "count"),
    ("auditor.reference_hits", "count"),
    ("ingest.submit_us_per_job", "us"),
    ("ingest.pump_us_per_job", "us"),
    ("ingest.pump_busy_frac", "ratio"),
    ("ingest.idle_pump_frac", "ratio"),
    ("queue.wait_p50_ms", "ms"),
    ("queue.depth_peak", "count"),
    ("pool.reuse_frac", "ratio"),
    ("journal.append_us_per_job", "us"),
    ("journal.group_commits", "count"),
    ("journal.rotations", "count"),
    ("journal.checkpoints", "count"),
    ("journal.parse_us_per_entry", "us"),
    ("journal.entries", "count"),
    ("recovery.replay_ms", "ms"),
    ("evidence.seal_ms", "ms"),
    ("evidence.seals", "count"),
    ("evidence.prove_ms", "ms"),
    ("evidence.proof_verify_us", "us"),
    ("evidence.proofs_per_dispute", "count"),
    ("metrics.render_ms", "ms"),
    ("metrics.series", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.observer_overhead_ms", "ms"),
    ("harness.gen_late_p99_ms", "ms"),
    ("harness.coordination_residual_frac", "ratio"),
];

/// Journal write counters over a window.
#[derive(Debug, Clone, Copy)]
pub struct JournalDelta {
    group_commits: u64,
    rotations: u64,
    checkpoints: u64,
}

impl JournalDelta {
    /// The counters `after` gained over `before`, plus the checkpoints the
    /// load thread saw.
    pub fn between(before: &JournalStats, after: &JournalStats, checkpoints: u64) -> JournalDelta {
        JournalDelta {
            group_commits: after.group_commits - before.group_commits,
            rotations: after.rotations - before.rotations,
            checkpoints,
        }
    }
}

/// Sets the per-layer metric `name`.
pub fn set(out: &mut Outcome, name: &'static str, value: f64) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .expect("metric listed in PER_LAYER");
    out.layers.insert(name, (value, unit));
}

/// Fills every per-layer metric with 0: the value of a layer that does no
/// work in the workload.
pub fn zeroed(out: &mut Outcome) {
    for (name, unit) in PER_LAYER {
        out.layers.insert(name, (0.0, unit));
    }
}

fn stage(service: &FleetService, stage: &str) -> (f64, u64) {
    let labels = [("stage", stage)];
    let metrics = service.metrics();
    (
        metrics
            .histogram_sum("fleet_stage_seconds", &labels)
            .unwrap_or(0.0),
        metrics
            .histogram_count("fleet_stage_seconds", &labels)
            .unwrap_or(0),
    )
}

fn row(out: &mut Outcome, layer: &str, thread: &str, busy_s: f64, count: u64, capacity_s: f64) {
    out.table.push(format!(
        "{layer:<28} {thread:<8} {busy_s:>10.4} {count:>9} {:>10.2} {:>7.1}%",
        busy_s * 1e6 / count.max(1) as f64,
        100.0 * busy_s / capacity_s.max(f64::EPSILON),
    ));
}

fn header(out: &mut Outcome, title: &str, wall_s: f64) {
    out.table.push(format!("{title} (wall {wall_s:.3} s)"));
    out.table.push(format!(
        "{:<28} {:<8} {:>10} {:>9} {:>10} {:>8}",
        "layer", "thread", "busy_s", "count", "mean_us", "share"
    ));
}

/// Window metrics of a load workload, from the load thread's spans and the
/// tracer's stage histograms, plus the window's layer table.
pub fn window(
    out: &mut Outcome,
    w: &Window,
    stats: &IngestStats,
    service: &FleetService,
    workers: usize,
    journal: Option<JournalDelta>,
) {
    let wall = w.wall.as_secs_f64();
    let jobs = w.offered.max(1) as f64;
    let (post, posts) = stage(service, "post");
    let (audit, audits) = stage(service, "audit");
    let (commit, commits) = stage(service, "journal_commit");
    let (execute, executions) = stage(service, "execute");
    let (submit, pump, sleep) = (
        w.submit.as_secs_f64(),
        w.pump.as_secs_f64(),
        w.sleep.as_secs_f64(),
    );
    let residual = wall - submit - pump - sleep;

    set(out, "ingest.submit_us_per_job", submit * 1e6 / jobs);
    set(out, "ingest.pump_us_per_job", pump * 1e6 / jobs);
    set(out, "ingest.pump_busy_frac", pump / wall);
    set(
        out,
        "ingest.idle_pump_frac",
        w.idle_pumps as f64 / w.pumps.max(1) as f64,
    );
    let wait = service
        .metrics()
        .histogram_quantile("fleet_stage_seconds", &[("stage", "queue_wait")], 0.5)
        .unwrap_or(0.0);
    set(out, "queue.wait_p50_ms", wait * 1e3);
    set(out, "queue.depth_peak", w.depth_peak as f64);
    set(
        out,
        "pool.reuse_frac",
        stats.pool.reused as f64 / stats.pool.acquired.max(1) as f64,
    );
    if let Some(delta) = journal {
        set(out, "journal.append_us_per_job", commit * 1e6 / jobs);
        set(out, "journal.group_commits", delta.group_commits as f64);
        set(out, "journal.rotations", delta.rotations as f64);
        set(out, "journal.checkpoints", delta.checkpoints as f64);
    }
    let renders: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(service.metrics_text());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    set(out, "metrics.render_ms", median(&renders));
    set(
        out,
        "metrics.series",
        service.metrics().series_count() as f64,
    );
    let observer = service.tracer().map(|t| t.stats()).unwrap_or_default();
    set(
        out,
        "trace.observer_overhead_ms",
        observer.overhead_nanos as f64 / 1e6,
    );
    set(out, "harness.gen_late_p99_ms", quantile(&w.late_ms, 0.99));
    set(out, "harness.coordination_residual_frac", residual / wall);

    header(out, "load window: load thread", wall);
    row(out, "ingest.submit_all", "load", submit, w.offered, wall);
    row(
        out,
        "ingest.pump (self)",
        "load",
        pump - post - commit,
        w.pumps,
        wall,
    );
    row(
        out,
        "service.post (self)",
        "load",
        post - audit,
        posts,
        wall,
    );
    row(out, "auditor.observe", "load", audit, audits, wall);
    row(out, "journal.commit", "load", commit, commits, wall);
    row(out, "load.sleep (idle)", "load", sleep, w.idle_pumps, wall);
    row(out, "coordination residual", "load", residual, 1, wall);
    header(out, "load window: worker threads", wall * workers as f64);
    row(
        out,
        "executor.run_one",
        "workers",
        execute,
        executions,
        wall * workers as f64,
    );
}

/// Feeds `jobs` to the executor, the attestation check and the auditor one
/// at a time, as a 1-shard fleet with the workload's seed would.
pub fn isolation(out: &mut Outcome, seed: u64, jobs: &[JobSpec]) {
    let config = FleetConfig::new(1, seed);
    let fleet = Fleet::new(config.clone());
    let n = jobs.len().max(1) as f64;
    let (mut run_s, mut verify_s, mut observe_s) = (0.0, 0.0, 0.0);
    let (mut ticks, mut switches, mut syscalls, mut replays) = (0u64, 0u64, 0u64, 0u64);
    let mut auditor = Auditor::new(config.machine.clone())
        .with_sampling(config.sampling, seed)
        .demand_quotes(seed);
    for job in jobs {
        let started = Instant::now();
        let record = fleet.run_one(job);
        run_s += started.elapsed().as_secs_f64();
        let stats = &record.outcome.stats;
        ticks += stats.ticks;
        switches += stats.context_switches;
        syscalls += stats.syscalls;
        // A worker pays one extra clean replay for each sampled attacked job.
        replays += u64::from(job.attack.is_some() && record.reference.is_some());

        let started = Instant::now();
        let verified = fleet.verify_record(&record);
        verify_s += started.elapsed().as_secs_f64();
        out.check(verified.is_ok(), || {
            format!("quote of job {}: {verified:?}", job.id)
        });

        let started = Instant::now();
        std::hint::black_box(auditor.observe(&record));
        observe_s += started.elapsed().as_secs_f64();
    }
    set(out, "executor.run_one_us", run_s * 1e6 / n);
    set(out, "executor.reference_replays", replays as f64);
    set(out, "kernel.ticks_per_job", ticks as f64 / n);
    set(out, "kernel.ctx_switches_per_job", switches as f64 / n);
    set(out, "kernel.syscalls_per_job", syscalls as f64 / n);
    set(out, "attest.quote_verify_us", verify_s * 1e6 / n);
    set(out, "auditor.observe_us", observe_s * 1e6 / n);
    set(out, "auditor.inline_replays", auditor.replay_count() as f64);
    set(
        out,
        "auditor.reference_hits",
        auditor.reference_hit_count() as f64,
    );

    let total = run_s + verify_s + observe_s;
    header(out, "isolation pass: one job at a time", total);
    row(
        out,
        "executor.run_one",
        "load",
        run_s,
        jobs.len() as u64,
        total,
    );
    row(
        out,
        "attest.verify_record",
        "load",
        verify_s,
        jobs.len() as u64,
        total,
    );
    row(
        out,
        "auditor.observe",
        "load",
        observe_s,
        jobs.len() as u64,
        total,
    );
}

/// Read-side metrics of the evidence rounds and their layer table.
/// `seal_ms` is the final head seal of the journal's writer.
pub fn evidence(out: &mut Outcome, ev: &Evidence, seal_ms: f64) {
    let rounds = ev.recover_s.len().max(1) as f64;
    let parse: f64 = ev.parse_s.iter().sum();
    let replay: f64 = ev.replay_s.iter().sum();
    let recover: f64 = ev.recover_s.iter().sum();
    let verify: f64 = ev.verify_s.iter().sum();
    let dispute: f64 = ev.dispute_ms.iter().sum::<f64>() / 1e3;
    let prove: f64 = ev.prove_ms.iter().sum::<f64>() / 1e3;
    let proof_verify: f64 = ev.proof_verify_us.iter().sum::<f64>() / 1e6;
    set(
        out,
        "journal.parse_us_per_entry",
        parse * 1e6 / rounds / ev.entries.max(1) as f64,
    );
    set(out, "journal.entries", ev.entries as f64);
    set(out, "recovery.replay_ms", median(&ev.replay_s) * 1e3);
    set(out, "evidence.seal_ms", seal_ms);
    set(out, "evidence.seals", ev.seals as f64);
    set(out, "evidence.prove_ms", median(&ev.prove_ms));
    set(out, "evidence.proof_verify_us", median(&ev.proof_verify_us));
    set(out, "evidence.proofs_per_dispute", ev.proofs_per_dispute());

    let wall = recover + verify + dispute;
    let r = ev.recover_s.len() as u64;
    header(out, "evidence rounds", wall);
    row(out, "journal.entries (parse)", "load", parse, r, wall);
    row(out, "recover_latest", "load", replay, r, wall);
    row(
        out,
        "reopen + service build",
        "load",
        recover - parse - replay,
        r,
        wall,
    );
    row(
        out,
        "journal.verify",
        "load",
        verify,
        ev.verify_s.len() as u64,
        wall,
    );
    row(
        out,
        "service.dispute",
        "load",
        dispute,
        ev.dispute_ms.len() as u64,
        wall,
    );
    out.table.push(format!(
        "extra isolation calls: journal.prove {prove:.4} s over {} calls, \
         proof.verify {proof_verify:.4} s over {} proofs",
        ev.prove_ms.len(),
        ev.proof_verify_us.len()
    ));
}
