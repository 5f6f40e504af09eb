//! The two load generators: a closed loop holding a fixed number of jobs
//! outstanding, and an open loop offering seeded Poisson arrivals. Both run
//! on one thread that sleeps whenever a pump released nothing, so the
//! load thread never competes with the workers by spinning.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use trustmeter_fleet::{FleetStream, JobId, Journal, SubmitError};

use crate::{host_steal_s, quantile, spec, Outcome, STEAL_LIMIT};

/// How long the load thread sleeps after a pump that released nothing.
const POLL: Duration = Duration::from_micros(200);
/// Equal slices of time an open window is cut into, to tell the slices the
/// host disturbed from the rest (see [`Window::settled_latency_ms`]).
const SLICES: usize = 10;
/// Quantile of a closed window's slices its figures are taken at, from
/// the fast end (see [`Window::fast_slices`]).
const FAST_QUARTILE: f64 = 0.25;

/// The billing latencies of the jobs due in one slice of a window, the
/// share of the machine's CPU time the hypervisor stole during the slice
/// (open loop), and when its last job was billed (closed loop).
#[derive(Debug, Default, Clone)]
pub struct Slice {
    pub latency_ms: Vec<f64>,
    pub steal_share: f64,
    pub last_bill: Option<Instant>,
}

/// What one driven window measured. Spans are the benchmark's own, taken
/// around its calls into the ingest layer.
#[derive(Debug, Default)]
pub struct Window {
    /// Length of the measured window, seconds: the window's set time
    /// (open loop), or from the first submission to the last bill (closed
    /// loop).
    pub seconds: f64,
    /// Whole load loop, window and drain.
    pub wall: Duration,
    /// Jobs offered to `submit_all` (window and drain).
    pub offered: u64,
    /// Jobs shed by a full queue.
    pub shed: u64,
    /// Jobs billed inside the window.
    pub billed: u64,
    /// Submit → billed (closed loop) or due → billed (open loop) latency
    /// in ms of every job the window offered, whenever it was billed, by
    /// the slice the job was submitted or due in: equal stretches of time
    /// (open loop) or runs of equally many jobs (closed loop, which does
    /// not measure their steal).
    pub slices: Vec<Slice>,
    /// Jobs billed per second in each full slice of a closed window: its
    /// jobs over the time from the previous slice's last bill (or the
    /// window's start) to its own last bill.
    pub slice_rates: Vec<f64>,
    /// How late the load thread acted, in ms: submission after its due time
    /// (open loop) or wake-up after the requested sleep (closed loop).
    pub late_ms: Vec<f64>,
    /// Time inside `submit_all`.
    pub submit: Duration,
    /// Time inside `pump`.
    pub pump: Duration,
    /// Time asleep waiting for the workers.
    pub sleep: Duration,
    /// `pump` calls, and those that released nothing.
    pub pumps: u64,
    pub idle_pumps: u64,
    /// Deepest queue the load thread saw after a submission.
    pub depth_peak: usize,
    /// Inline checkpoints written: pumps after which the journal retired
    /// segments.
    pub checkpoints: u64,
}

impl Window {
    /// Jobs billed per second of the window.
    pub fn rate(&self) -> f64 {
        self.billed as f64 / self.seconds.max(f64::EPSILON)
    }

    /// A closed window's rate and median and 90th-percentile latency, ms,
    /// at its fast end: the upper [`FAST_QUARTILE`] of its full slices'
    /// rates and the lower one of their latency quantiles. The host's
    /// speed jumps by tens of percent from one second to the next, so the
    /// share of slow seconds in a window varies from run to run; its faster
    /// slices vary less, and a change to the code moves them as much as
    /// the rest. Without a full slice, the whole window's figures.
    pub fn fast_slices(&self) -> (f64, f64, f64) {
        let full = &self.slices[..self.slice_rates.len()];
        if full.is_empty() {
            let latency: Vec<f64> = self
                .slices
                .iter()
                .flat_map(|s| s.latency_ms.clone())
                .collect();
            return (
                self.rate(),
                quantile(&latency, 0.5),
                quantile(&latency, 0.9),
            );
        }
        let per_slice =
            |q| -> Vec<f64> { full.iter().map(|s| quantile(&s.latency_ms, q)).collect() };
        (
            quantile(&self.slice_rates, 1.0 - FAST_QUARTILE),
            quantile(&per_slice(0.5), FAST_QUARTILE),
            quantile(&per_slice(0.9), FAST_QUARTILE),
        )
    }

    /// The latencies of the slices the host left alone: every slice during
    /// which the hypervisor stole at most [`STEAL_LIMIT`] of the machine's
    /// CPU time or, when fewer than half the slices are that quiet, the
    /// least disturbed half. Returns them with the number of slices kept.
    pub fn settled_latency_ms(&self) -> (Vec<f64>, usize) {
        let mut slices: Vec<&Slice> = self.slices.iter().collect();
        slices.sort_by(|a, b| a.steal_share.total_cmp(&b.steal_share));
        let quiet = slices
            .iter()
            .filter(|s| s.steal_share <= STEAL_LIMIT)
            .count();
        let kept = quiet.max(slices.len().div_ceil(2));
        let latency = slices[..kept]
            .iter()
            .flat_map(|s| s.latency_ms.iter().copied())
            .collect();
        (latency, kept)
    }
}

/// Tracks submitted jobs until `pump` bills them, in submission order
/// (the order the fleet releases them in).
struct Pending {
    jobs: VecDeque<(JobId, Instant)>,
    seen: usize,
    retired: u64,
    /// End of an open loop's window: jobs due after it are not measured,
    /// and only bills before it count towards the window's rate.
    end: Option<Instant>,
    /// Start of the window and length of its slices: a time (open loop)
    /// or a job count (closed loop).
    start: Instant,
    slice: Duration,
    slice_jobs: Option<u64>,
    /// When the last job was billed.
    last_bill: Option<Instant>,
}

impl Pending {
    fn new(
        journal: Option<&Journal>,
        start: Instant,
        end: Option<Instant>,
        slice_jobs: Option<u64>,
    ) -> Pending {
        Pending {
            jobs: VecDeque::new(),
            seen: 0,
            retired: journal.map_or(0, |j| j.stats().segments_retired),
            end,
            start,
            slice: end.map_or(Duration::MAX, |end| (end - start) / SLICES as u32),
            slice_jobs,
            last_bill: None,
        }
    }

    /// Pumps once and settles what it billed.
    fn pump(
        &mut self,
        stream: &mut FleetStream<'_>,
        journal: Option<&Journal>,
        w: &mut Window,
        out: &mut Outcome,
    ) -> usize {
        let started = Instant::now();
        let posted = stream.pump();
        let done = Instant::now();
        w.pump += done - started;
        w.pumps += 1;
        if posted == 0 {
            w.idle_pumps += 1;
        }
        // Each billed job was counted as attempted when it was offered; a
        // job billed twice, unasked or out of order fails it.
        for verdict in &stream.verdicts()[self.seen..] {
            let Some((job, at)) = self.jobs.pop_front() else {
                out.fail(format!("job {} billed but never submitted", verdict.job));
                continue;
            };
            if job != verdict.job {
                out.fail(format!(
                    "job {} billed out of order (expected {job})",
                    verdict.job
                ));
            }
            if self.end.is_none_or(|end| at <= end) {
                let k = match self.slice_jobs {
                    Some(jobs) => (w.billed / jobs) as usize,
                    None => ((at - self.start).as_nanos() / self.slice.as_nanos().max(1)) as usize,
                };
                if self.slice_jobs.is_some() && k == w.slices.len() {
                    w.slices.push(Slice::default());
                }
                let last = w.slices.len() - 1;
                let slice = &mut w.slices[k.min(last)];
                slice.latency_ms.push((done - at).as_secs_f64() * 1e3);
                slice.last_bill = Some(done);
                w.billed += u64::from(self.end.is_none_or(|end| done <= end));
            }
            self.last_bill = Some(done);
        }
        self.seen = stream.verdicts().len();
        if let Some(journal) = journal {
            let retired = journal.stats().segments_retired;
            w.checkpoints += u64::from(retired > self.retired);
            self.retired = retired;
        }
        posted
    }
}

fn sleep(duration: Duration, w: &mut Window) -> Duration {
    let started = Instant::now();
    std::thread::sleep(duration);
    let slept = started.elapsed();
    w.sleep += slept;
    slept
}

/// Keeps `outstanding` jobs in flight until `jobs` jobs, numbered from
/// `first`, were billed, in slices of `slice_jobs` jobs. `journal` is a
/// handle on the service's journal, used only to count inline
/// checkpoints. A fixed job count rather than a fixed time keeps
/// everything the window leaves behind (journal, ledger, records) the same
/// size however fast the fleet bills.
pub fn closed_loop(
    stream: &mut FleetStream<'_>,
    journal: Option<&Journal>,
    first: u64,
    outstanding: usize,
    jobs: u64,
    slice_jobs: u64,
    out: &mut Outcome,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut pending = Pending::new(journal, start, None, Some(slice_jobs));
    let (mut next, last) = (first, first + jobs);
    loop {
        if next == last && pending.jobs.is_empty() {
            break;
        }
        if next < last && pending.jobs.len() < outstanding {
            let n = ((outstanding - pending.jobs.len()) as u64).min(last - next);
            let batch: Vec<_> = (next..next + n).map(spec).collect();
            let at = Instant::now();
            match stream.submit_all(&batch) {
                Ok(_) => {}
                Err(e) => out.check(false, || format!("closed-loop submit: {e}")),
            }
            w.submit += at.elapsed();
            w.offered += batch.len() as u64;
            next += batch.len() as u64;
            pending.jobs.extend(batch.iter().map(|job| (job.id, at)));
            w.depth_peak = w.depth_peak.max(stream.stats().queued);
        }
        if pending.pump(stream, journal, &mut w, out) == 0 {
            let slept = sleep(POLL, &mut w);
            w.late_ms
                .push((slept.saturating_sub(POLL)).as_secs_f64() * 1e3);
        }
    }
    w.wall = start.elapsed();
    w.seconds = pending
        .last_bill
        .map_or(0.0, |last| (last - start).as_secs_f64());
    let mut from = start;
    for slice in &w.slices {
        let Some(to) = slice.last_bill else { break };
        if slice.latency_ms.len() as u64 == slice_jobs {
            w.slice_rates
                .push(slice_jobs as f64 / (to - from).as_secs_f64().max(f64::EPSILON));
        }
        from = to;
    }
    w
}

/// splitmix64, the arrival schedule's own generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Poisson arrivals at `rate` jobs/s over `seconds`: the offsets,
/// in seconds, at which each job is due.
pub fn arrivals(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut state = seed ^ 0xA5A5_5A5A_0F0F_F0F0;
    let mut at = 0.0;
    let mut due = Vec::new();
    loop {
        let unit = ((splitmix(&mut state) >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        at += -unit.ln() / rate;
        if at >= seconds {
            return due;
        }
        due.push(at);
    }
}

/// Offers `due` (offsets from the window start) as jobs numbered from
/// `first`, submitting each batch of due jobs at once; a full queue sheds
/// the rest of the batch. Drains after the last arrival.
pub fn open_loop(
    stream: &mut FleetStream<'_>,
    first: u64,
    due: &[f64],
    seconds: f64,
    out: &mut Outcome,
) -> Window {
    let mut w = Window {
        seconds,
        slices: vec![Slice::default(); SLICES],
        ..Window::default()
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut pending = Pending::new(None, start, Some(end), None);
    // Steal counter readings at each slice boundary passed so far.
    let mut marks = vec![(start, host_steal_s())];
    let mut next = 0usize;
    let mut batch = Vec::new();
    loop {
        if next == due.len() && pending.jobs.is_empty() {
            break;
        }
        let now = start.elapsed().as_secs_f64();
        if marks.len() <= SLICES && now >= seconds * marks.len() as f64 / SLICES as f64 {
            marks.push((Instant::now(), host_steal_s()));
        }
        batch.clear();
        while next < due.len() && due[next] <= now {
            batch.push(spec(first + next as u64));
            next += 1;
        }
        if !batch.is_empty() {
            let at = Instant::now();
            let admitted = match stream.submit_all(&batch) {
                Ok(_) => batch.len(),
                Err(e) => {
                    out.check(e.error == SubmitError::QueueFull, || {
                        format!("open-loop submit: {e}")
                    });
                    e.accepted.len()
                }
            };
            w.submit += at.elapsed();
            w.offered += batch.len() as u64;
            w.shed += (batch.len() - admitted) as u64;
            let first_due = next - batch.len();
            for (k, job) in batch[..admitted].iter().enumerate() {
                let due_at = start + Duration::from_secs_f64(due[first_due + k]);
                w.late_ms.push((at - due_at).as_secs_f64() * 1e3);
                pending.jobs.push_back((job.id, due_at));
            }
            w.depth_peak = w.depth_peak.max(stream.stats().queued);
        }
        if pending.pump(stream, None, &mut w, out) == 0 {
            // Sleep until the next arrival is due, but wake at least every
            // POLL to bill what the workers completed.
            let until_due = due.get(next).map_or(POLL, |d| {
                Duration::from_secs_f64((d - start.elapsed().as_secs_f64()).max(0.0))
            });
            sleep(until_due.min(POLL), &mut w);
        }
    }
    w.wall = start.elapsed();
    while marks.len() <= SLICES {
        marks.push((Instant::now(), host_steal_s()));
    }
    for (slice, pair) in w.slices.iter_mut().zip(marks.windows(2)) {
        let ((from, stolen_from), (to, stolen_to)) = (pair[0], pair[1]);
        let cpu = (to - from).as_secs_f64() * cores;
        slice.steal_share = (stolen_to - stolen_from) / cpu.max(f64::EPSILON);
    }
    w
}
