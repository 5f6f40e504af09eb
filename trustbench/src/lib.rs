//! `trustbench`: the trustmeter fleet benchmark.
//!
//! Three workloads drive the fleet only through its public calls
//! (`FleetService`/`FleetStream`, `Journal`, `Fleet`, `Auditor`,
//! `InclusionProof`). Every run reports the end-to-end metrics; a traced
//! run adds the per-layer metrics and the layer table. Every run checks
//! its outputs outside the timed window. `NOTES.md` says why each workload
//! exists and which layer should move which metric.

pub mod drive;
pub mod evidence;
pub mod layers;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use trustmeter_fleet::{
    AttackSpec, BackpressurePolicy, CheckpointCadence, FleetConfig, FleetService, FsyncPolicy,
    IngestConfig, JobId, JobSpec, Journal, Ledger, PipelineTracer, RateCard, SegmentConfig, Tenant,
    TenantId,
};
use trustmeter_workloads::Workload;

/// Tenants of the job mix.
const TENANTS: u32 = 4;
/// Workload scale of every job.
const SCALE: f64 = 0.001;
/// Jobs each set-up pushes through the workload's own path before timing.
const WARMUP_JOBS: u64 = 512;
/// Set-ups per run, made before the window and, dropped at once, after
/// the run's last measurement, so that `setup_s`, their median, spans the
/// run.
const SETUP_ROUNDS: usize = 5;
const LATE_SETUP_ROUNDS: usize = 4;
/// Fewest set-up + evidence cycles a `recover-dispute` run makes.
const JOURNAL_CYCLES: usize = 3;
/// Rotation threshold of every sealed journal.
const SEGMENT_BYTES: u64 = 1 << 20;
/// `closed-sealed`'s inline checkpoint cadence, in billed runs.
const CHECKPOINT_EVERY: u64 = 4096;
/// Jobs the closed loop keeps outstanding.
const OUTSTANDING: usize = 128;
/// Jobs `closed-sealed`'s window bills per second of `--seconds`: about
/// half its rate on the 2-core development host, so the window and the
/// auditor's evidence rounds together last about `--seconds` there. The
/// window is a fixed job count, not a fixed time, so its
/// journal, ledger and records are the same size on every run.
const CLOSED_JOBS_PER_SECOND: f64 = 3000.0;
/// Jobs in each leg of the tracing-overhead pairs, and the pairs.
const OVERHEAD_LEG_JOBS: u64 = 1024;
const OVERHEAD_PAIRS: usize = 10;
/// `open-bare`'s arrival rate, jobs/s: about half the capacity of its
/// journal-less pipeline on the 2-core development host (see `NOTES.md`).
pub const OPEN_RATE: f64 = 2000.0;
/// `open-bare`'s bounded submission queue (overflow is shed).
const OPEN_QUEUE: usize = 4096;
/// Jobs `recover-dispute`'s set-up writes into its evidence journal.
const EVIDENCE_JOBS: u64 = 1024;
/// Jobs of a load window an outside auditor re-bills into a sealed
/// journal to check the live bill against (see `SampleAudit`).
const SAMPLE_JOBS: usize = 256;
/// Jobs `closed-sealed` bills after its closing checkpoint.
const TAIL_JOBS: u64 = 256;
/// Evidence rounds over an auditor's sample, in each half: at least this
/// many, and more until half of `AUDIT_BUDGET` has passed.
const AUDIT_ROUNDS: usize = 3;
const AUDIT_BUDGET: Duration = Duration::from_secs(5);
/// Ring size of the traced run's span buffer.
const TRACE_RING: usize = 4096;
/// Share of the machine's CPU time the hypervisor may steal during a run,
/// or a slice of the open loop, before it counts as disturbed by the host
/// (see [`run_settled`] and [`drive::Window::settled_latency_ms`]).
const STEAL_LIMIT: f64 = 0.03;
/// Most runs made for one untraced result (see [`run_settled`]).
const ATTEMPTS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Closed loop into a sealed, checkpointed segmented journal.
    ClosedSealed,
    /// Seeded Poisson arrivals, no journal.
    OpenBare,
    /// Restart, verify and dispute over a batch-written sealed journal.
    RecoverDispute,
}

impl Bench {
    /// Every workload.
    pub const ALL: [Bench; 3] = [Bench::ClosedSealed, Bench::OpenBare, Bench::RecoverDispute];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Bench::ClosedSealed => "closed-sealed",
            Bench::OpenBare => "open-bare",
            Bench::RecoverDispute => "recover-dispute",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// How one run is made.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seeds the fleet (job seeds, sampling, keys) and the arrivals.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Ingest workers (at most the host's cores).
    pub workers: usize,
    /// Scratch directory for journals; removed by the caller.
    pub dir: PathBuf,
    /// The benchmark's executable, which runs each half of an auditor's
    /// evidence rounds as a process of its own (see [`audit_half`]).
    pub exe: PathBuf,
}

/// A metric's value and unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// What one run measured and whether its outputs were correct.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: jobs offered, disputes, correctness checks.
    pub attempted: u64,
    /// Operations that failed: jobs not billed, disputes not settled,
    /// checks that did not hold.
    pub failed: u64,
    /// Why each failure happened.
    pub failures: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layers: Metrics,
    /// The layer table (traced runs only).
    pub table: Vec<String>,
    /// Share of the machine's CPU time the hypervisor stole during the run.
    pub steal_share: f64,
}

impl Outcome {
    /// Records a correctness check: one more attempted operation, which
    /// fails unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Records the failure of an operation already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Whether every check held and every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.failed == 0
    }

    fn served_frac(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// The `i`-th job of the mix: tenants and workloads rotate, every fourth
/// job carries the shell attack.
fn spec(i: u64) -> JobSpec {
    let tenant = TenantId((i % TENANTS as u64) as u32 + 1);
    let workload = Workload::ALL[(i % Workload::ALL.len() as u64) as usize];
    if i.is_multiple_of(4) {
        JobSpec::attacked(i, tenant, workload, SCALE, AttackSpec::Shell)
    } else {
        JobSpec::clean(i, tenant, workload, SCALE)
    }
}

/// Jobs `first..first + n` of the mix.
fn specs(first: u64, n: u64) -> Vec<JobSpec> {
    (first..first + n).map(spec).collect()
}

/// The sealed journal geometry every workload uses: 1 MiB segments, signed
/// seals on rotation, no fsync.
fn sealed_config(seed: u64) -> SegmentConfig {
    SegmentConfig::default()
        .with_segment_bytes(SEGMENT_BYTES)
        .with_fsync(FsyncPolicy::Never)
        .with_seal(seed)
}

/// A service over `shards` workers with the mix's tenants registered.
fn service(shards: usize, seed: u64) -> FleetService {
    let mut service = FleetService::new(FleetConfig::new(shards, seed));
    for id in 1..=TENANTS {
        service.register(Tenant::new(
            TenantId(id),
            format!("t{id}"),
            RateCard::per_cpu_hour(0.10),
        ));
    }
    service
}

/// Runs `setup` `rounds` times, dropping each result before the next
/// starts; returns the last result and every round's seconds.
fn repeat_setup<T>(rounds: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut last = None;
    let mut seconds = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        seconds.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up round"), seconds)
}

/// Streams the warm-up batch through `service` with `workers` workers.
fn warm_up(service: &mut FleetService, workers: usize) {
    let stream = service.stream(IngestConfig::new(workers).with_capacity(WARMUP_JOBS as usize));
    stream
        .submit_all(&specs(0, WARMUP_JOBS))
        .expect("warm-up queue sized for the batch");
    let report = stream.finish();
    assert_eq!(
        report.records.len() as u64,
        WARMUP_JOBS,
        "warm-up billed every job"
    );
}

/// The `q`-quantile of `values` by linear interpolation (0 when empty).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest of `values` (0 when empty): the sample the host disturbed
/// least, since on a shared host noise only ever adds time.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// CPU time the hypervisor stole from this machine so far, seconds
/// (`steal` in `/proc/stat`, all CPUs): a diagnostic for host noise.
pub(crate) fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            stat.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs one workload. `traced` attaches a pipeline tracer for the window
/// and adds the per-layer metrics, the layer table and the tracing-overhead
/// pairs.
pub fn run(bench: Bench, p: &Params, traced: bool) -> Outcome {
    let (steal, started) = (host_steal_s(), Instant::now());
    let mut out = Outcome::default();
    if traced {
        layers::zeroed(&mut out);
    }
    match bench {
        Bench::ClosedSealed => closed_sealed(p, traced, &mut out),
        Bench::OpenBare => open_bare(p, traced, &mut out),
        Bench::RecoverDispute => recover_dispute(p, traced, &mut out),
    }
    out.e2e.insert("served_frac", (out.served_frac(), "ratio"));
    out.e2e.insert("peak_rss_mb", (peak_rss_mb(), "MiB"));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.steal_share = (host_steal_s() - steal) / (started.elapsed().as_secs_f64() * cores as f64);
    out
}

/// Runs one workload untraced until a run is not disturbed by the host —
/// the hypervisor stole at most [`STEAL_LIMIT`] of the machine's CPU time
/// — or [`ATTEMPTS`] runs were made, and returns the least disturbed run.
/// Its correctness counts cover every run made.
pub fn run_settled(bench: Bench, p: &Params) -> Outcome {
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    let mut best: Option<Outcome> = None;
    for _ in 0..ATTEMPTS {
        let out = run(bench, p, false);
        eprintln!(
            "host stole {:.1} % of the CPU time",
            out.steal_share * 100.0
        );
        attempted += out.attempted;
        failed += out.failed;
        failures.extend(out.failures.iter().cloned());
        let settled = out.steal_share <= STEAL_LIMIT;
        if best
            .as_ref()
            .is_none_or(|b| out.steal_share < b.steal_share)
        {
            best = Some(out);
        }
        if settled {
            break;
        }
    }
    let mut out = best.expect("at least one attempt");
    (out.attempted, out.failed, out.failures) = (attempted, failed, failures);
    out.e2e.insert("served_frac", (out.served_frac(), "ratio"));
    out
}

fn with_tracer(service: FleetService, traced: bool, seed: u64) -> FleetService {
    if traced {
        service.with_tracer(PipelineTracer::new(TRACE_RING, seed))
    } else {
        service
    }
}

/// Checks that a stream billed exactly the `expected` job ids, once each
/// and in submission order, and that no job was reassigned or poisoned.
fn check_stream(
    out: &mut Outcome,
    records: &[trustmeter_fleet::RunRecord],
    stats: &trustmeter_fleet::IngestStats,
    ledger: &Ledger,
    expected: &[u64],
) {
    let billed: Vec<u64> = records.iter().map(|r| r.job.id.0).collect();
    out.check(billed == expected, || {
        format!(
            "billed {} jobs, {} accepted, or out of order",
            billed.len(),
            expected.len()
        )
    });
    let runs: u64 = ledger.iter().map(|a| a.runs).sum();
    let mut ids: Vec<u64> = ledger
        .iter()
        .flat_map(|a| a.invoices.iter().map(|(id, _, _)| id.0))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    out.check(runs == ids.len() as u64, || {
        format!("ledger posts {runs} runs for {} jobs", ids.len())
    });
    out.check(stats.reassigned == 0 && stats.poisoned == 0, || {
        format!(
            "healthy run reassigned {} and poisoned {} jobs",
            stats.reassigned, stats.poisoned
        )
    });
}

/// Whether ledgers `a` and `b` posted the same invoices to the same
/// tenant for `job`.
fn same_posting(a: &Ledger, b: &Ledger, job: JobId) -> bool {
    let find = |ledger: &Ledger| {
        ledger.iter().find_map(|account| {
            let invoice = account.invoices.iter().find(|(id, _, _)| *id == job)?;
            Some((account.tenant, invoice.clone()))
        })
    };
    let posted = find(a);
    posted.is_some() && posted == find(b)
}

/// Sets `setup_s` (the median set-up) and the billing metrics: jobs
/// billed per second, and the median and 90th percentile billing latency.
fn set_timings(out: &mut Outcome, setup: &[f64], rate: f64, p50_ms: f64, p90_ms: f64) {
    out.e2e.insert("setup_s", (median(setup), "s"));
    out.e2e.insert("jobs_per_s", (rate, "1/s"));
    out.e2e.insert("billed_p50_ms", (p50_ms, "ms"));
    out.e2e.insert("billed_p90_ms", (p90_ms, "ms"));
}

/// [`set_timings`] over the billing latencies of a load window.
fn set_window_timings(out: &mut Outcome, setup: &[f64], rate: f64, latency_ms: &[f64]) {
    let (p50, p90) = (quantile(latency_ms, 0.5), quantile(latency_ms, 0.9));
    set_timings(out, setup, rate, p50, p90);
}

/// Sets the evidence metrics: journal bytes per job, and the restart,
/// verify and median dispute time of the fastest evidence round.
fn set_evidence(out: &mut Outcome, ev: &evidence::Evidence, bytes_per_job: f64) {
    out.e2e
        .insert("journal_bytes_per_job", (bytes_per_job, "B"));
    out.e2e.insert("recover_s", (fastest(&ev.recover_s), "s"));
    out.e2e.insert("verify_s", (fastest(&ev.verify_s), "s"));
    out.e2e
        .insert("dispute_p50_ms", (fastest(&ev.round_dispute_ms), "ms"));
}

/// An outside auditor's check of a load window. It re-bills an even
/// sample of the window's jobs through the batch API into a sealed journal
/// of its own — whole blocks of four consecutive jobs, so the sample keeps
/// the window's mix of tenants, workloads and attacks — and runs the
/// evidence rounds over that journal. The sample is the same size on every
/// run, so the evidence figures move only with the code that produces
/// them, not with how many jobs the window billed. The window's jobs are
/// fixed before it starts, so half the rounds run before the window and
/// half after it, meeting the host over the whole run. Each half runs in a
/// process of its own, as an outside auditor would: a process the host
/// slows throughout (see `NOTES.md`) then cannot slow both halves.
struct SampleAudit {
    dir: PathBuf,
    window_jobs: u64,
    sample: Vec<JobSpec>,
    writer: FleetService,
    seal: Duration,
    ev: evidence::Evidence,
}

impl SampleAudit {
    /// Writes the auditor's journal for a window of `window_jobs` jobs
    /// numbered from `WARMUP_JOBS`.
    fn new(p: &Params, name: &str, window_jobs: u64) -> SampleAudit {
        let blocks = window_jobs / 4;
        let step = (blocks / (SAMPLE_JOBS as u64 / 4)).max(1);
        let sample: Vec<JobSpec> = (0..blocks)
            .step_by(step as usize)
            .take(SAMPLE_JOBS / 4)
            .flat_map(|block| specs(WARMUP_JOBS + 4 * block, 4))
            .collect();
        let dir = p.dir.join(name);
        let (writer, _, seal) = evidence::write_journal(&dir, p.seed, &sample);
        SampleAudit {
            dir,
            window_jobs,
            sample,
            writer,
            seal,
            ev: evidence::Evidence::default(),
        }
    }

    /// One half of the evidence rounds, run by [`audit_half`] in a child
    /// process; adds what it measured to `self.ev` and what it checked to
    /// `out`.
    fn rounds(&mut self, p: &Params, traced: bool, out: &mut Outcome) {
        let child = Command::new(&p.exe)
            .args(["--audit", &self.window_jobs.to_string()])
            .arg("--dir")
            .arg(self.dir.with_extension("auditor"))
            .args(["--seed", &p.seed.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let report = match &child {
            Ok(done) if done.status.success() => String::from_utf8_lossy(&done.stdout),
            _ => return out.check(false, || format!("auditor process: {child:?}")),
        };
        let rounds_before = self.ev.recover_s.len();
        for line in report.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "attempted" => out.attempted += rest.parse::<u64>().unwrap_or(0),
                "failed" => out.failed += rest.parse::<u64>().unwrap_or(1),
                "failure" => out.failures.push(format!("auditor: {rest}")),
                _ => self.ev.add_line(key, rest),
            }
        }
        out.check(self.ev.recover_s.len() > rounds_before, || {
            format!("auditor process reported no rounds: {report}")
        });
    }

    /// Checks that every sampled invoice equals the one the live run
    /// billed.
    fn check_live(&self, live: &Ledger, out: &mut Outcome) {
        for job in &self.sample {
            out.check(same_posting(live, self.writer.ledger(), job.id), || {
                format!("job {} billed differently live and by the auditor", job.id)
            });
        }
    }

    /// Bytes of the auditor's journal per sampled job.
    fn bytes_per_job(&self) -> f64 {
        let written = self.writer.journal().map(|j| j.stats()).unwrap_or_default();
        written.bytes as f64 / self.sample.len().max(1) as f64
    }
}

/// The child side of an auditor's half of the evidence rounds: writes the
/// auditor's journal for a window of `window_jobs` jobs, runs
/// `AUDIT_ROUNDS` or more rounds over it for half of `AUDIT_BUDGET`, and
/// returns what they measured and checked as lines of text.
pub fn audit_half(p: &Params, window_jobs: u64, traced: bool) -> String {
    let mut out = Outcome::default();
    let mut audit = SampleAudit::new(p, "audit", window_jobs);
    evidence::rounds(
        &audit.dir,
        1,
        p.seed,
        &audit.writer,
        audit.writer.ledger(),
        AUDIT_ROUNDS,
        AUDIT_BUDGET / 2,
        traced,
        &mut audit.ev,
        &mut out,
    );
    let mut text = audit.ev.to_text();
    text += &format!("attempted {}\nfailed {}\n", out.attempted, out.failed);
    for failure in &out.failures {
        text += &format!("failure {}\n", failure.replace('\n', " "));
    }
    text
}

/// `closed-sealed`'s service over a fresh sealed journal at `dir`, warmed
/// up.
fn sealed_service(p: &Params, dir: &Path) -> (FleetService, Journal) {
    let _ = std::fs::remove_dir_all(dir);
    let journal = Journal::segmented(dir, sealed_config(p.seed)).expect("open journal");
    let mut service = service(p.workers, p.seed)
        .with_journal(journal.clone())
        .with_checkpoint_cadence(CheckpointCadence::every_n_runs(CHECKPOINT_EVERY));
    warm_up(&mut service, p.workers);
    (service, journal)
}

/// Runs `jobs` jobs numbered from `first` through `service`'s closed loop
/// with `workers` workers, checks that each was billed once, and returns
/// the window with the ingest counters.
fn closed_window(
    service: &mut FleetService,
    journal: Option<&Journal>,
    workers: usize,
    first: u64,
    jobs: u64,
    out: &mut Outcome,
) -> (drive::Window, trustmeter_fleet::IngestStats) {
    let mut stream = service.stream(IngestConfig::new(workers).with_capacity(2 * OUTSTANDING));
    let window = drive::closed_loop(
        &mut stream,
        journal,
        first,
        OUTSTANDING,
        jobs,
        CHECKPOINT_EVERY,
        out,
    );
    let stats = stream.stats();
    let report = stream.finish();
    let expected: Vec<u64> = (first..first + window.offered).collect();
    check_stream(out, &report.records, &stats, service.ledger(), &expected);
    out.attempted += jobs;
    out.failed += jobs.saturating_sub(report.records.len() as u64);
    (window, stats)
}

/// The tracer's cost, % of throughput: pairs of equal closed-loop legs of
/// the same jobs through two like services, one untraced and one traced,
/// alternating which runs first, so both sides of a pair meet the same
/// host. Reports the median over the pairs of the traced leg's
/// throughput loss.
fn tracing_overhead(
    mut build: impl FnMut(&Path) -> (FleetService, Option<Journal>),
    workers: usize,
    p: &Params,
    out: &mut Outcome,
) -> f64 {
    let (mut bare, bare_journal) = build(&p.dir.join("overhead-off"));
    let (traced, traced_journal) = build(&p.dir.join("overhead-on"));
    let mut traced = with_tracer(traced, true, p.seed);
    let mut losses = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let first = WARMUP_JOBS + pair as u64 * OVERHEAD_LEG_JOBS;
        let rate = |service: &mut FleetService, journal: &Option<Journal>, out: &mut _| {
            let leg = closed_window(
                service,
                journal.as_ref(),
                workers,
                first,
                OVERHEAD_LEG_JOBS,
                out,
            );
            leg.0.rate()
        };
        let (off, on) = if pair % 2 == 0 {
            let off = rate(&mut bare, &bare_journal, out);
            (off, rate(&mut traced, &traced_journal, out))
        } else {
            let on = rate(&mut traced, &traced_journal, out);
            (rate(&mut bare, &bare_journal, out), on)
        };
        losses.push((off / on - 1.0) * 100.0);
    }
    let overhead = median(&losses);
    out.table.push(format!(
        "tracing overhead: {overhead:.1} % of throughput, median of {OVERHEAD_PAIRS} \
         paired legs of {OVERHEAD_LEG_JOBS} jobs"
    ));
    overhead
}

fn closed_sealed(p: &Params, traced: bool, out: &mut Outcome) {
    let dir = p.dir.join("closed-sealed");
    let ((service, journal), mut setup) = repeat_setup(SETUP_ROUNDS, || sealed_service(p, &dir));
    let mut service = with_tracer(service, traced, p.seed);
    let jobs = (p.seconds * CLOSED_JOBS_PER_SECOND).round().max(1.0) as u64;
    let mut audit = SampleAudit::new(p, "closed-sealed-sample", jobs);
    audit.rounds(p, traced, out);

    let before = journal.stats();
    let (window, stats) = closed_window(
        &mut service,
        Some(&journal),
        p.workers,
        WARMUP_JOBS,
        jobs,
        out,
    );
    let written = journal.stats();
    let bytes_per_job = (written.bytes - before.bytes) as f64 / window.offered.max(1) as f64;
    if traced {
        let delta = layers::JournalDelta::between(&before, &written, window.checkpoints);
        layers::window(out, &window, &stats, &service, p.workers, Some(delta));
    }

    // Close the window the way an operator would before handing the
    // journal to an auditor: one checkpoint, then a fixed tail of jobs
    // with the cadence off, and a head seal. One untimed evidence round
    // over that journal checks it: recovery reproduces the live ledger and
    // metering exposition, every seal verifies, and disputes over the tail
    // settle the live postings. Its closing checkpoint carries the whole
    // ledger, so its timings would follow the window's size; the timed
    // rounds run over the auditor's fixed-size sample instead.
    let closing = Instant::now();
    let closed = journal.append_checkpoint(&service.checkpoint());
    let checkpoint_ms = closing.elapsed().as_secs_f64() * 1e3;
    out.check(closed.is_ok(), || format!("closing checkpoint: {closed:?}"));
    let mut service = service.with_checkpoint_cadence(CheckpointCadence::Never);
    let tail = specs(WARMUP_JOBS + window.offered, TAIL_JOBS);
    out.attempted += TAIL_JOBS;
    let billed = service.process(&tail).records.len() as u64;
    out.failed += TAIL_JOBS.saturating_sub(billed);
    let sealing = Instant::now();
    let sealed = journal.seal();
    let seal_ms = sealing.elapsed().as_secs_f64() * 1e3;
    out.check(sealed.is_ok(), || format!("seal journal head: {sealed:?}"));
    evidence::rounds(
        &dir,
        p.workers,
        p.seed,
        &service,
        service.ledger(),
        1,
        Duration::ZERO,
        false,
        &mut evidence::Evidence::default(),
        out,
    );

    audit.check_live(service.ledger(), out);
    audit.rounds(p, traced, out);
    let late_dir = p.dir.join("closed-sealed-late");
    setup.extend(repeat_setup(LATE_SETUP_ROUNDS, || sealed_service(p, &late_dir)).1);
    let (rate, p50_ms, p90_ms) = window.fast_slices();
    let pooled: Vec<f64> = window
        .slices
        .iter()
        .flat_map(|s| s.latency_ms.clone())
        .collect();
    eprintln!(
        "closed loop: {rate:.0} jobs/s, p50/p90 {p50_ms:.2}/{p90_ms:.2} ms at the fast quartile of \
         {} slices; {:.0} jobs/s, {:.2}/{:.2} ms over the whole window",
        window.slice_rates.len(),
        window.rate(),
        quantile(&pooled, 0.5),
        quantile(&pooled, 0.9)
    );
    set_timings(out, &setup, rate, p50_ms, p90_ms);
    set_evidence(out, &audit.ev, bytes_per_job);
    if traced {
        layers::isolation(out, p.seed, &specs(WARMUP_JOBS, layers::ISOLATION_JOBS));
        layers::evidence(out, &audit.ev, seal_ms);
        out.table
            .push(format!("closing checkpoint: {checkpoint_ms:.1} ms"));
        let build = |dir: &Path| {
            let (service, journal) = sealed_service(p, dir);
            (service, Some(journal))
        };
        let overhead = tracing_overhead(build, p.workers, p, out);
        layers::set(out, "trace.overhead_pct", overhead);
    }
}

fn open_bare(p: &Params, traced: bool, out: &mut Outcome) {
    let workers = open_workers(p);
    let build = || {
        let mut service = service(workers, p.seed);
        warm_up(&mut service, workers);
        service
    };
    let (service, mut setup) = repeat_setup(SETUP_ROUNDS, build);
    let mut service = with_tracer(service, traced, p.seed);
    let due = drive::arrivals(p.seed, OPEN_RATE, p.seconds);

    let mut audit = SampleAudit::new(p, "open-bare-sample", due.len() as u64);
    audit.rounds(p, traced, out);

    let mut stream = service.stream(
        IngestConfig::new(workers)
            .with_capacity(OPEN_QUEUE)
            .with_backpressure(BackpressurePolicy::Reject),
    );
    let window = drive::open_loop(&mut stream, WARMUP_JOBS, &due, p.seconds, out);
    let stats = stream.stats();
    let report = stream.finish();
    out.attempted += window.offered;
    out.failed += window.shed;
    out.check(window.shed == 0, || {
        format!("{} jobs shed below capacity", window.shed)
    });
    let expected: Vec<u64> = (WARMUP_JOBS..WARMUP_JOBS + window.offered).collect();
    check_stream(out, &report.records, &stats, service.ledger(), &expected);
    if traced {
        layers::window(out, &window, &stats, &service, workers, None);
    }

    audit.check_live(service.ledger(), out);
    audit.rounds(p, traced, out);
    setup.extend(repeat_setup(LATE_SETUP_ROUNDS, build).1);
    let (latency_ms, kept) = window.settled_latency_ms();
    eprintln!(
        "open loop: latencies from {kept} of {} slices (hypervisor steal {:?} %)",
        window.slices.len(),
        window
            .slices
            .iter()
            .map(|s| (s.steal_share * 1000.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    set_window_timings(out, &setup, window.rate(), &latency_ms);
    set_evidence(out, &audit.ev, audit.bytes_per_job());
    if traced {
        layers::isolation(out, p.seed, &specs(WARMUP_JOBS, layers::ISOLATION_JOBS));
        layers::evidence(out, &audit.ev, audit.seal.as_secs_f64() * 1e3);
        let build = |_: &Path| {
            let mut bare = crate::service(workers, p.seed);
            warm_up(&mut bare, workers);
            (bare, None)
        };
        let overhead = tracing_overhead(build, workers, p, out);
        layers::set(out, "trace.overhead_pct", overhead);
    }
}

fn recover_dispute(p: &Params, traced: bool, out: &mut Outcome) {
    // Cycles of set-up (write the journal through the batch path) and
    // evidence (restart, verify, dispute) fill the run, so every metric
    // draws on samples spread across it, not on one burst at its start.
    let dir = p.dir.join("recover-dispute");
    let jobs = specs(0, EVIDENCE_JOBS);
    let (mut setup, mut seal_ms) = (Vec::new(), Vec::new());
    // Per cycle: the batch path's rate, and the median and 90th
    // percentile of its per-call latencies.
    let (mut rates, mut p50_ms, mut p90_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut ev = evidence::Evidence::default();
    let mut bytes = 0;
    let start = Instant::now();
    while setup.len() < JOURNAL_CYCLES || start.elapsed().as_secs_f64() < p.seconds {
        let started = Instant::now();
        let (writer, latency, seal) = evidence::write_journal(&dir, p.seed, &jobs);
        setup.push(started.elapsed().as_secs_f64());
        rates.push(latency.len() as f64 / (latency.iter().sum::<f64>() / 1e3));
        p50_ms.push(quantile(&latency, 0.5));
        p90_ms.push(quantile(&latency, 0.9));
        seal_ms.push(seal.as_secs_f64() * 1e3);
        out.attempted += EVIDENCE_JOBS;
        let runs: u64 = writer.ledger().iter().map(|a| a.runs).sum();
        out.failed += EVIDENCE_JOBS.saturating_sub(runs);
        out.check(runs == EVIDENCE_JOBS, || {
            format!("batch path billed {runs} of {EVIDENCE_JOBS} jobs")
        });
        bytes = writer.journal().map_or(0, |j| j.stats().bytes);
        evidence::rounds(
            &dir,
            1,
            p.seed,
            &writer,
            writer.ledger(),
            1,
            Duration::ZERO,
            traced,
            &mut ev,
            out,
        );
    }
    let fastest_rate = rates.iter().copied().fold(0.0, f64::max);
    set_timings(
        out,
        &setup,
        fastest_rate,
        fastest(&p50_ms),
        fastest(&p90_ms),
    );
    set_evidence(out, &ev, bytes as f64 / EVIDENCE_JOBS as f64);
    if traced {
        layers::evidence(out, &ev, median(&seal_ms));
    }
}

/// `open-bare`'s workers: one core fewer than the host has (at least
/// one), so the load thread, which bills every job, keeps a core of its
/// own and its latency does not wait for the scheduler's time slices.
pub fn open_workers(p: &Params) -> usize {
    p.workers.saturating_sub(1).max(1)
}

/// Measures the saturated throughput of `open-bare`'s pipeline, jobs/s:
/// `closed-sealed`'s closed loop through `open-bare`'s workers, without a
/// journal. `OPEN_RATE` is about half of it.
pub fn calibrate(p: &Params) -> f64 {
    let mut out = Outcome::default();
    let workers = open_workers(p);
    let mut service = service(workers, p.seed);
    warm_up(&mut service, workers);
    let jobs = (p.seconds * CLOSED_JOBS_PER_SECOND).round().max(1.0) as u64;
    let (window, _) = closed_window(&mut service, None, workers, WARMUP_JOBS, jobs, &mut out);
    window.rate()
}

/// Removes a scratch directory, ignoring one that is already gone.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
