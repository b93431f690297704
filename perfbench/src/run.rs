//! The end-to-end slot loop, with tracing off: due events plus
//! `System::step_slot`, timed per slot from outside.

use crate::check::{feasible, Fnv};
use crate::workload::{Rig, Workload};
use p2p_metrics::{EngineReport, SlotMetrics};
use p2p_sched::{ChunkScheduler, Schedule, SlotProblem};
use p2p_types::Result;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Extra set-ups timed before the slot loop, so `setup_s` is a median
/// over more samples than the few passes a slow workload fits in.
const EXTRA_SETUPS: usize = 16;

/// What the checking wrapper saw of one slot's schedule.
#[derive(Debug)]
pub struct SlotEntry {
    /// Requests in the slot problem.
    pub requests: u64,
    /// Candidate edges in the slot problem.
    pub edges: u64,
    /// The feasibility check's verdict.
    pub verdict: std::result::Result<(), String>,
    /// Fingerprint of the assignment.
    pub hash: u64,
}

/// Wraps the system's scheduler: checks every schedule it returns and
/// fingerprints it, so the untraced loop still runs the output checks.
struct Checked {
    inner: Box<dyn ChunkScheduler>,
    last: Rc<RefCell<Option<SlotEntry>>>,
}

impl ChunkScheduler for Checked {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, problem: &SlotProblem) -> Result<Schedule> {
        let schedule = self.inner.schedule(problem)?;
        *self.last.borrow_mut() = Some(entry(problem, &schedule));
        Ok(schedule)
    }

    fn set_probes(&mut self, enabled: bool) {
        self.inner.set_probes(enabled);
    }

    fn take_probe_report(&mut self) -> Option<EngineReport> {
        self.inner.take_probe_report()
    }

    fn take_virtual_elapsed(&mut self) -> Option<f64> {
        self.inner.take_virtual_elapsed()
    }
}

/// Checks and fingerprints one slot's schedule.
pub fn entry(problem: &SlotProblem, schedule: &Schedule) -> SlotEntry {
    let instance = &problem.instance;
    let mut h = Fnv::default();
    h.assignment(&schedule.assignment);
    SlotEntry {
        requests: instance.request_count() as u64,
        edges: instance.edge_count() as u64,
        verdict: feasible(instance, &schedule.assignment),
        hash: h.finish(),
    }
}

/// Whole-pass outcome counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Outcome {
    /// Σ slot social welfare.
    pub welfare: f64,
    /// Scheduled transfers.
    pub transfers: u64,
    /// Transfers that cross an ISP boundary.
    pub inter_isp: u64,
    /// Chunks that came due for playback.
    pub due: u64,
    /// Due chunks that missed their deadline.
    pub missed: u64,
}

impl Outcome {
    /// Adds one slot.
    pub fn add(&mut self, m: &SlotMetrics) {
        self.welfare += m.welfare;
        self.transfers += m.transfers;
        self.inter_isp += m.inter_isp_transfers;
        self.due += m.due_chunks;
        self.missed += m.missed_chunks;
    }

    /// Adds another pass.
    pub fn merge(&mut self, o: &Outcome) {
        self.welfare += o.welfare;
        self.transfers += o.transfers;
        self.inter_isp += o.inter_isp;
        self.due += o.due;
        self.missed += o.missed;
    }
}

/// One pass over the scenario.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Scenario seed of the pass.
    pub seed: u64,
    /// Set-up time: pool, scheduler, `System::new`, peers and churn.
    pub setup_s: f64,
    /// Wall time of each attempted slot; a failed slot is infinite.
    pub slot_s: Vec<f64>,
    /// Requests per slot.
    pub requests: Vec<u64>,
    /// Candidate edges per slot.
    pub edges: Vec<u64>,
    /// Shards `ShardCount::Auto` resolves to for each slot's size.
    pub shards: Vec<usize>,
    /// Outcome counters.
    pub outcome: Outcome,
    /// Fingerprint of every schedule and slot account, in order.
    pub hash: u64,
    /// One message per failed slot.
    pub errors: Vec<String>,
}

impl Pass {
    /// Slots attempted.
    pub fn attempted(&self) -> u64 {
        self.slot_s.len() as u64
    }

    /// Requests scheduled over the pass.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// Records a failed slot: it counts as infinitely slow.
    pub fn fail(&mut self, slot: u64, why: impl std::fmt::Display) {
        self.slot_s.push(f64::INFINITY);
        self.errors.push(format!("seed {} slot {slot}: {why}", self.seed));
    }
}

/// Runs one untraced pass with scenario seed `seed`.
///
/// # Errors
///
/// Only set-up failures; slot failures are recorded in the pass.
pub fn run_pass(workload: &Workload, seed: u64) -> Result<Pass> {
    let scenario = workload.scenario(seed)?;
    let last = Rc::new(RefCell::new(None));
    let t0 = Instant::now();
    let mut rig =
        Rig::new(workload, &scenario, |inner| Box::new(Checked { inner, last: Rc::clone(&last) }))?;
    let mut pass = Pass { seed, setup_s: t0.elapsed().as_secs_f64(), ..Pass::default() };
    let mut hash = Fnv::default();
    for slot in 0..scenario.slots {
        let t0 = Instant::now();
        let stepped = rig
            .events
            .iter()
            .filter(|e| e.at_slot == slot)
            .try_for_each(|e| e.event.apply(&mut rig.sys))
            .and_then(|()| rig.sys.step_slot());
        let dt = t0.elapsed().as_secs_f64();
        let metrics = match stepped {
            Ok(m) => m,
            Err(e) => {
                pass.fail(slot, e);
                break;
            }
        };
        let Some(entry) = last.borrow_mut().take() else {
            pass.fail(slot, "the scheduler was not called");
            continue;
        };
        if let Err(why) = entry.verdict {
            pass.fail(slot, why);
        } else {
            pass.slot_s.push(dt);
        }
        pass.requests.push(entry.requests);
        pass.edges.push(entry.edges);
        pass.shards.push(scenario.shards.resolve_for(entry.requests as usize));
        pass.outcome.add(&metrics);
        hash.word(entry.hash);
        hash.slot(&metrics);
    }
    pass.hash = hash.finish();
    Ok(pass)
}

/// Everything a timed run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every pass, in order; pass `i` ran sub-seed `i % sub_seeds`.
    pub passes: Vec<Pass>,
    /// Set-up times: the extra set-ups and every pass's own.
    pub setup_s: Vec<f64>,
    /// Determinism failures: a rerun whose fingerprint differs.
    pub mismatches: Vec<String>,
}

/// Times set-up alone a few times, then makes passes cycling through the
/// sub-seeds until `seconds` have passed and at least
/// [`Workload::min_passes`] are done.
///
/// # Errors
///
/// Set-up failures.
pub fn measure(workload: &Workload, seed: u64, seconds: f64) -> Result<Measured> {
    let seeds = workload.sub_seeds(seed);
    let mut out = Measured::default();
    for k in 0..EXTRA_SETUPS {
        let scenario = workload.scenario(seeds[k % seeds.len()])?;
        let t0 = Instant::now();
        let rig = Rig::new(workload, &scenario, |s| s)?;
        out.setup_s.push(t0.elapsed().as_secs_f64());
        drop(rig);
    }
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut last = Duration::ZERO;
    // Past the minimum, a pass starts only if one more fits in the budget,
    // judged by the previous pass.
    while (out.passes.len() as u64) < workload.min_passes || start.elapsed() + last <= budget {
        let t0 = Instant::now();
        let i = out.passes.len();
        let pass = run_pass(workload, seeds[i % seeds.len()])?;
        if let Some(first) = out.passes.get(i % seeds.len()).filter(|_| i >= seeds.len()) {
            if first.hash != pass.hash {
                out.mismatches.push(format!(
                    "seed {}: rerun fingerprint {:016x} differs from {:016x}",
                    pass.seed, pass.hash, first.hash
                ));
            }
        }
        out.setup_s.push(pass.setup_s);
        out.passes.push(pass);
        last = t0.elapsed();
    }
    Ok(out)
}
