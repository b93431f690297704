//! The traced run: the benchmark drives the slot loop itself and puts a
//! span around each call into a layer's public functions.
//!
//! Per slot, under one `slot` span: `ScenarioEvent::apply`,
//! `System::prepare_slot`, the benchmark's own `ChunkScheduler::schedule`
//! (probes on) and `System::complete_slot`. After the slot span, as spans
//! of their own with the same slot id: `SlotProblem::csr_instance` called
//! alone, `SwarmAuction::run` and a replay of the wire stack's slot
//! (`Tracker::bind` and peer threads, `accept_peers`, `Tracker::run`,
//! `shutdown` and joins). The swarm and the wire stack run on every slot of
//! the workload whose scheduler uses them, and on the first non-empty slot
//! of each pass elsewhere, so every layer is measured on every workload.

use crate::check::{feasible, Fnv};
use crate::run::{entry, run_pass, Pass};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::workload::{Rig, Workload};
use p2p_core::{
    derive_seed, AuctionConfig, AuctionOutcome, FlatAuction, NetworkModel, NoProbe, ShardCount,
    SwarmAuction, SwarmConfig,
};
use p2p_metrics::{EngineReport, SlotMetrics};
use p2p_net::{NetConfig, NetRunStats, Peer, PeerConfig, Tracker};
use p2p_scenario::{NET_DEFAULT_PEERS, SIM_FAULTY_EPSILON};
use p2p_sched::{ChunkScheduler, Schedule, SlotProblem};
use p2p_types::{P2pError, Result};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Per-layer accumulators over every traced pass.
#[derive(Debug, Default)]
pub struct Layers {
    passes: u64,
    apply_s: Vec<f64>,
    prepare_s: Vec<f64>,
    schedule_s: Vec<f64>,
    complete_s: Vec<f64>,
    csr_emit_s: f64,
    requests: Vec<f64>,
    edges: Vec<f64>,
    blocks_reused: u64,
    blocks_rebuilt: u64,
    chunks_reused: u64,
    chunks_fresh: u64,
    cache_entries_max: u64,
    engine: EngineReport,
    assigned: u64,
    slack_max: f64,
    pool_jobs: u64,
    pool_parks: u64,
    pool_spawned: u64,
    sim_run_s: f64,
    sim_events: u64,
    sim_messages: u64,
    sim_peak_queue: u64,
    sim_coalesced: u64,
    sim_dropped: u64,
    sim_duplicated: u64,
    sim_reordered: u64,
    sim_virtual_s: f64,
    net_bind_s: Vec<f64>,
    net_handshake_s: Vec<f64>,
    net_sweep_s: Vec<f64>,
    net_teardown_s: Vec<f64>,
    net_frames_sent: u64,
    net_frames_recv: u64,
    net_requests: u64,
    overhead_s: Vec<f64>,
    traced_loop_s: f64,
    untraced_loop_s: f64,
    cert_failures: Vec<String>,
}

/// One per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

impl Layers {
    /// The per-layer metrics: medians of per-call samples, per-pass means
    /// of totals, and ratios of summed counts.
    pub fn metrics(&self) -> Vec<Metric> {
        let per_pass = |x: f64| x / self.passes.max(1) as f64;
        let count = |x: u64| per_pass(x as f64);
        let ms = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) * 1e3 };
        vec![
            ("scenario.apply_ms", ms(&self.apply_s), "ms"),
            ("streaming.prepare_ms_p50", ms(&self.prepare_s), "ms"),
            ("streaming.prepare_s", per_pass(self.prepare_s.iter().sum()), "s"),
            ("slot.requests", median(&self.requests), "count"),
            ("slot.edges", median(&self.edges), "count"),
            (
                "streaming.cache_block_reuse",
                ratio(self.blocks_reused as f64, (self.blocks_reused + self.blocks_rebuilt) as f64),
                "ratio",
            ),
            (
                "streaming.cache_chunk_reuse",
                ratio(self.chunks_reused as f64, (self.chunks_reused + self.chunks_fresh) as f64),
                "ratio",
            ),
            ("streaming.cache_entries", self.cache_entries_max as f64, "count"),
            ("streaming.complete_ms_p50", ms(&self.complete_s), "ms"),
            ("streaming.complete_s", per_pass(self.complete_s.iter().sum()), "s"),
            ("sched.csr_emit_s", per_pass(self.csr_emit_s), "s"),
            ("sched.schedule_ms_p50", ms(&self.schedule_s), "ms"),
            ("sched.schedule_s", per_pass(self.schedule_s.iter().sum()), "s"),
            ("core.rounds", count(self.engine.rounds), "count"),
            ("core.bids", count(self.engine.bids), "count"),
            ("core.conflicts", count(self.engine.conflicts), "count"),
            ("core.retries", count(self.engine.retries), "count"),
            ("core.retired", count(self.engine.retired), "count"),
            (
                "core.assigned_per_bid",
                ratio(self.assigned as f64, self.engine.bids as f64),
                "ratio",
            ),
            ("core.cert_slack_max", self.slack_max, "utility"),
            ("runtime.pool_jobs", count(self.pool_jobs), "count"),
            ("runtime.pool_parks", count(self.pool_parks), "count"),
            ("runtime.pool_spawned", count(self.pool_spawned), "count"),
            ("sim.run_s", per_pass(self.sim_run_s), "s"),
            ("sim.events", count(self.sim_events), "count"),
            ("sim.events_per_s", ratio(self.sim_events as f64, self.sim_run_s), "1/s"),
            ("sim.messages", count(self.sim_messages), "count"),
            ("sim.peak_queue", self.sim_peak_queue as f64, "count"),
            ("sim.coalesced_events", count(self.sim_coalesced), "count"),
            ("sim.dropped", count(self.sim_dropped), "count"),
            ("sim.duplicated", count(self.sim_duplicated), "count"),
            ("sim.reordered", count(self.sim_reordered), "count"),
            ("sim.virtual_s", per_pass(self.sim_virtual_s), "s"),
            ("net.bind_ms", ms(&self.net_bind_s), "ms"),
            ("net.handshake_ms", ms(&self.net_handshake_s), "ms"),
            ("net.sweep_ms", ms(&self.net_sweep_s), "ms"),
            ("net.teardown_ms", ms(&self.net_teardown_s), "ms"),
            ("net.frames_sent", count(self.net_frames_sent), "count"),
            ("net.frames_recv", count(self.net_frames_recv), "count"),
            (
                "net.frames_per_request",
                ratio(
                    (self.net_frames_sent + self.net_frames_recv) as f64,
                    self.net_requests as f64,
                ),
                "ratio",
            ),
            ("trace.overhead_ms_p50", ms(&self.overhead_s), "ms"),
            (
                "trace.overhead_share",
                ratio(self.traced_loop_s, self.untraced_loop_s) - 1.0,
                "ratio",
            ),
        ]
    }

    /// Pairs a traced pass with the untraced pass of the same seed: the
    /// per-slot difference is the tracing overhead.
    fn pair(&mut self, untraced: &Pass, traced: &Pass) {
        for (t, u) in traced.slot_s.iter().zip(&untraced.slot_s) {
            if t.is_finite() && u.is_finite() {
                self.overhead_s.push(t - u);
                self.traced_loop_s += t;
                self.untraced_loop_s += u;
            }
        }
    }

    fn engine(&mut self, report: &EngineReport, requests: usize, epsilon: f64, welfare: f64) {
        self.engine.merge(report);
        self.assigned += report.assigned;
        self.slack_max = self.slack_max.max(report.slack);
        // Weak duality: the dual objective bounds the primal, so the slack
        // is never negative. Theorem 1 bounds it by n·ε when ε > 0. At
        // ε = 0, ties in streaming slots leave a real gap (the paper's rule
        // is not certified there), so the slack is reported, not gated.
        let tol = 1e-9 * (1.0 + welfare.abs());
        let bound = requests as f64 * epsilon;
        if report.slack < -tol || (epsilon > 0.0 && report.slack > bound + tol) {
            self.cert_failures
                .push(format!("certificate slack {} outside [0, n·ε = {bound}]", report.slack));
        }
    }
}

/// Everything the traced run measured and checked.
#[derive(Debug, Default)]
pub struct TracedRun {
    /// Per-layer accumulators.
    pub layers: Layers,
    /// The spans of every traced pass.
    pub tracer: Tracer,
    /// Slots attempted in traced passes.
    pub attempted: u64,
    /// One message per failed slot or failed check.
    pub errors: Vec<String>,
    /// Traced/untraced pass pairs made.
    pub pairs: u64,
}

/// The reference the side calls must reproduce bit for bit.
fn same(what: &str, got: &AuctionOutcome, want: &Schedule) -> std::result::Result<(), String> {
    if got.assignment == want.assignment
        && got.rounds == want.stats.rounds
        && got.bids_submitted == want.stats.bids
    {
        Ok(())
    } else {
        Err(format!("{what} diverges (rounds {} vs {})", got.rounds, want.stats.rounds))
    }
}

/// The flat engine at one shard: the engine every ideal-network execution
/// of the paper's auction is bit-identical to.
fn flat_reference(problem: &SlotProblem) -> Result<Schedule> {
    let out = FlatAuction::new(AuctionConfig::paper(), ShardCount::Fixed(1))
        .run(&problem.csr_instance())?;
    Ok(Schedule {
        assignment: out.assignment,
        stats: p2p_sched::ScheduleStats { rounds: out.rounds, bids: out.bids_submitted },
    })
}

/// Replays `run_slot_local_stats` with a span per phase.
fn net_slot(
    tracer: &mut Tracer,
    slot: u64,
    layers: &mut Layers,
    problem: &SlotProblem,
) -> Result<AuctionOutcome> {
    let config = NetConfig::default();
    let slot_span = tracer.begin("net.slot", slot, None);
    let root = Some(slot_span);
    let (bound, bind_s) = tracer.time("net.bind", slot, root, || -> Result<_> {
        let tracker = Tracker::bind("127.0.0.1:0", NET_DEFAULT_PEERS, config.clone())?;
        let addr = tracker.local_addr().to_string();
        let peer_config = PeerConfig { io_timeout: config.io_timeout, ..PeerConfig::default() };
        let peers: Vec<_> = (0..NET_DEFAULT_PEERS)
            .map(|i| {
                let (addr, cfg) = (addr.clone(), peer_config.clone());
                std::thread::spawn(move || Peer::connect(&addr, i as u64, cfg)?.run())
            })
            .collect();
        Ok((tracker, peers))
    });
    let (mut tracker, peers) = bound?;
    let (accepted, handshake_s) =
        tracer.time("net.handshake", slot, root, || tracker.accept_peers());
    let (outcome, sweep_s) = tracer.time("net.sweep", slot, root, || {
        accepted.and_then(|()| tracker.run(&problem.instance, &mut NoProbe))
    });
    let NetRunStats { frames_sent, frames_recv } = tracker.frame_stats();
    let (joined, teardown_s) = tracer.time("net.teardown", slot, root, || {
        tracker.shutdown();
        peers.into_iter().try_for_each(|h| match h.join() {
            Ok(r) => r,
            Err(_) => Err(P2pError::WorkerPanicked { message: "peer thread".into() }),
        })
    });
    tracer.end(slot_span);
    let outcome = outcome?;
    joined?;
    layers.net_bind_s.push(bind_s);
    layers.net_handshake_s.push(handshake_s);
    layers.net_sweep_s.push(sweep_s);
    layers.net_teardown_s.push(teardown_s);
    layers.net_frames_sent += frames_sent;
    layers.net_frames_recv += frames_recv;
    layers.net_requests += problem.request_count() as u64;
    Ok(outcome)
}

/// The swarm engine `auction_sim` runs on the lossy preset, with the
/// registry's ε for faulty networks.
fn lossy_swarm() -> SwarmAuction {
    SwarmAuction::new(SwarmConfig::with_epsilon(SIM_FAULTY_EPSILON), NetworkModel::lossy())
}

/// Feasibility and the Theorem 1 certificate of a lossy swarm outcome.
fn certified(problem: &SlotProblem, out: &AuctionOutcome) -> std::result::Result<(), String> {
    let instance = &problem.instance;
    feasible(instance, &out.assignment)?;
    let welfare = out.assignment.welfare(instance).get();
    let slack = out.duals.objective(instance) - welfare;
    let bound = problem.request_count() as f64 * SIM_FAULTY_EPSILON;
    if slack < -1e-9 * (1.0 + welfare.abs()) || slack > bound + 1e-9 * (1.0 + welfare.abs()) {
        return Err(format!("lossy swarm slack {slack} outside [0, n·ε = {bound}]"));
    }
    Ok(())
}

/// Calls the swarm and the wire stack directly on one slot problem and
/// checks both: the swarm against its certificate (and bit for bit against
/// `auction_sim` on the workload that runs it), the wire stack bit for bit
/// against `auction_flat` at one shard (and `auction_net` on its workload).
fn side_calls(
    workload: &Workload,
    seed: u64,
    (slot, slot_id): (u64, u64),
    problem: &SlotProblem,
    schedule: &Schedule,
    sample: bool,
    run: &mut TracedRun,
) -> Result<Vec<String>> {
    let mut failed = Vec::new();
    if workload.is_sim() || sample {
        // The scheduler's own per-slot seed stream, so W3's call replays
        // the slot it just scheduled.
        let slot_seed = derive_seed(seed, slot);
        let engine = lossy_swarm();
        let (out, dt) =
            run.tracer.time("sim.run", slot_id, None, || engine.run(&problem.instance, slot_seed));
        let out = out?;
        let l = &mut run.layers;
        l.sim_run_s += dt;
        l.sim_events += out.events;
        l.sim_messages += out.messages;
        l.sim_peak_queue = l.sim_peak_queue.max(out.peak_queue);
        l.sim_coalesced += out.coalesced_events;
        l.sim_dropped += out.faults.dropped;
        l.sim_duplicated += out.faults.duplicated;
        l.sim_reordered += out.faults.reordered;
        l.sim_virtual_s += out.converged_at.as_secs_f64();
        let outcome = out.to_outcome();
        failed.extend(certified(problem, &outcome).err());
        if workload.is_sim() {
            failed.extend(same("SwarmAuction::run vs auction_sim", &outcome, schedule).err());
        }
    }
    if workload.is_net() || sample {
        let out = net_slot(&mut run.tracer, slot_id, &mut run.layers, problem)?;
        if workload.is_net() {
            failed.extend(same("Tracker::run vs auction_net", &out, schedule).err());
        }
        let reference = flat_reference(problem)?;
        failed.extend(same("Tracker::run vs auction_flat", &out, &reference).err());
    }
    Ok(failed)
}

/// One traced pass. Returns the pass in the untraced loop's shape, so its
/// fingerprint and slot times pair with an untraced pass of the same seed.
fn traced_pass(
    workload: &Workload,
    seed: u64,
    next_id: &mut u64,
    run: &mut TracedRun,
) -> Result<Pass> {
    let scenario = workload.scenario(seed)?;
    let t0 = Instant::now();
    let mut rig = Rig::new(workload, &scenario, |s| s)?;
    let mut pass = Pass { seed, setup_s: t0.elapsed().as_secs_f64(), ..Pass::default() };
    let mut sched = workload.scheduler(&scenario, &rig.pool)?;
    sched.set_probes(true);
    let (jobs0, parks0, spawned0) =
        (rig.pool.jobs_executed(), rig.pool.parks(), rig.pool.spawned());
    let epsilon = if workload.is_sim() { SIM_FAULTY_EPSILON } else { 0.0 };
    let mut hash = Fnv::default();
    let mut sampled = false;
    for slot in 0..scenario.slots {
        let id = *next_id;
        *next_id += 1;
        let root = run.tracer.begin("slot", id, None);
        let stepped =
            traced_slot(&mut run.tracer, id, root, &mut rig, sched.as_mut(), slot, &mut run.layers);
        let checked = stepped.map(|(problem, schedule, metrics)| {
            let e = entry(&problem, &schedule);
            (problem, schedule, metrics, e)
        });
        let dt = run.tracer.end(root);
        let (problem, schedule, metrics, e) = match checked {
            Ok(x) => x,
            Err(err) => {
                pass.fail(slot, err);
                break;
            }
        };
        match &e.verdict {
            Ok(()) => pass.slot_s.push(dt),
            Err(why) => pass.fail(slot, why),
        }
        hash.word(e.hash);
        hash.slot(&metrics);
        pass.outcome.add(&metrics);
        let l = &mut run.layers;
        l.requests.push(e.requests as f64);
        l.edges.push(e.edges as f64);
        if let Some(report) = sched.take_probe_report() {
            l.engine(&report, problem.request_count(), epsilon, metrics.welfare);
        }
        let (csr, dt) = run.tracer.time("sched.csr_emit", id, None, || problem.csr_instance());
        black_box(csr);
        run.layers.csr_emit_s += dt;
        let sample = !sampled && e.requests > 0;
        sampled |= sample;
        let failed = side_calls(workload, seed, (slot, id), &problem, &schedule, sample, run)
            .unwrap_or_else(|e| vec![e.to_string()]);
        for why in failed {
            pass.errors.push(format!("seed {seed} slot {slot}: {why}"));
        }
    }
    pass.hash = hash.finish();
    // The engine's workers run as leased pool jobs that end with the
    // scheduler, so the pool's counters are read after it is dropped.
    drop(sched);
    let l = &mut run.layers;
    l.passes += 1;
    l.pool_jobs += rig.pool.jobs_executed() - jobs0;
    l.pool_parks += rig.pool.parks() - parks0;
    l.pool_spawned += rig.pool.spawned() - spawned0;
    Ok(pass)
}

/// One slot's layer calls under the `slot` span `root`.
fn traced_slot(
    tracer: &mut Tracer,
    id: u64,
    root: usize,
    rig: &mut Rig,
    sched: &mut dyn ChunkScheduler,
    slot: u64,
    layers: &mut Layers,
) -> Result<(SlotProblem, Schedule, SlotMetrics)> {
    let parent = Some(root);
    for e in rig.events.iter().filter(|e| e.at_slot == slot) {
        let (applied, dt) =
            tracer.time("scenario.apply", id, parent, || e.event.apply(&mut rig.sys));
        applied?;
        layers.apply_s.push(dt);
    }
    let (problem, dt) = tracer.time("streaming.prepare", id, parent, || rig.sys.prepare_slot());
    let problem = problem?;
    layers.prepare_s.push(dt);
    let stats = rig.sys.cache_stats();
    layers.blocks_reused += stats.blocks_reused;
    layers.blocks_rebuilt += stats.blocks_rebuilt;
    layers.chunks_reused += stats.chunks_reused;
    layers.chunks_fresh += stats.chunks_fresh;
    let memory = rig.sys.cache_memory();
    layers.cache_entries_max =
        layers.cache_entries_max.max((memory.blocks + memory.reverse_entries) as u64);
    let (schedule, dt) = tracer.time("sched.schedule", id, parent, || sched.schedule(&problem));
    let schedule = schedule?;
    layers.schedule_s.push(dt);
    let (metrics, dt) = tracer
        .time("streaming.complete", id, parent, || rig.sys.complete_slot(&problem, &schedule));
    let metrics = metrics?;
    layers.complete_s.push(dt);
    Ok((problem, schedule, metrics))
}

/// Alternates untraced and traced passes of the same seed until `seconds`
/// have passed (at least one pair). The traced pass must reproduce the
/// untraced pass's fingerprint.
///
/// # Errors
///
/// Set-up failures.
pub fn measure_traced(workload: &Workload, seed: u64, seconds: f64) -> Result<TracedRun> {
    let seeds = workload.sub_seeds(seed);
    let mut run = TracedRun::default();
    let mut next_id = 0;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut last = Duration::ZERO;
    // A pair starts only if one more fits in the budget, judged by the
    // previous pair.
    while run.pairs == 0 || start.elapsed() + last <= budget {
        let t0 = Instant::now();
        let seed = seeds[run.pairs as usize % seeds.len()];
        // Alternate which pass of the pair runs first, so warm-up favours
        // neither side of the overhead.
        let (untraced, traced) = if run.pairs % 2 == 0 {
            let u = run_pass(workload, seed)?;
            (u, traced_pass(workload, seed, &mut next_id, &mut run)?)
        } else {
            let t = traced_pass(workload, seed, &mut next_id, &mut run)?;
            (run_pass(workload, seed)?, t)
        };
        if untraced.hash != traced.hash {
            run.errors.push(format!(
                "seed {seed}: traced fingerprint {:016x} differs from untraced {:016x}",
                traced.hash, untraced.hash
            ));
        }
        run.layers.pair(&untraced, &traced);
        run.attempted += untraced.attempted() + traced.attempted();
        run.errors.extend(untraced.errors.iter().cloned());
        run.errors.extend(traced.errors.iter().cloned());
        run.pairs += 1;
        last = t0.elapsed();
    }
    run.errors.append(&mut run.layers.cert_failures);
    Ok(run)
}
