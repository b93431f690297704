//! The four scenario workloads and the shared set-up of one pass.

use p2p_core::derive_seed;
use p2p_runtime::WorkerPool;
use p2p_scenario::{builtin, scheduler_for_runtime, Scenario, TimedEvent};
use p2p_sched::{ChunkScheduler, WorkerSpawner};
use p2p_streaming::{ClockMode, SlotBuild, System};
use p2p_types::Result;
use std::sync::Arc;

/// One workload: a built-in scenario run through one scheduler.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name the benchmark is invoked with.
    pub name: &'static str,
    /// Built-in scenario.
    pub scenario: &'static str,
    /// Registry scheduler name.
    pub scheduler: &'static str,
    /// Slot-problem construction mode.
    pub slot_build: SlotBuild,
    /// Network preset for the sim backend (`ideal` elsewhere).
    pub net: &'static str,
    /// Scenario seeds derived from the run seed. Outcome metrics aggregate
    /// one pass over each, which averages out most seed-to-seed variation.
    pub sub_seeds: u64,
    /// Passes a timed run makes at least: every sub-seed once, plus a
    /// same-seed rerun for the determinism check.
    pub min_passes: u64,
    /// Same-seed passes each slot's tail sample is the fastest of (1: every
    /// timed slot as it ran). At most `min_passes / sub_seeds`.
    pub tail_repeats: u64,
}

/// Every workload, in presentation order. `outage_sim_lossy` runs by name
/// but is left out of `BENCHMARK.json`: its slot latency spreads too far
/// between runs on a shared host (see the README).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "flash_crowd_cold",
        scenario: "paper_flash_crowd",
        scheduler: "auction_flat",
        slot_build: SlotBuild::Cold,
        net: "ideal",
        sub_seeds: 2,
        min_passes: 5,
        tail_repeats: 1,
    },
    Workload {
        name: "outage_incremental_warm",
        scenario: "paper_isp_outage",
        scheduler: "auction_flat_warm",
        slot_build: SlotBuild::Incremental,
        net: "ideal",
        sub_seeds: 8,
        min_passes: 12,
        tail_repeats: 1,
    },
    Workload {
        name: "outage_sim_lossy",
        scenario: "paper_isp_outage",
        scheduler: "auction_sim",
        slot_build: SlotBuild::Cold,
        net: "lossy",
        sub_seeds: 3,
        min_passes: 4,
        tail_repeats: 1,
    },
    Workload {
        name: "outage_net",
        scenario: "isp_outage",
        scheduler: "auction_net",
        slot_build: SlotBuild::Cold,
        net: "ideal",
        sub_seeds: 10,
        min_passes: 30,
        tail_repeats: 3,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The scenario seeds one run with `seed` cycles through.
    pub fn sub_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.sub_seeds).map(|k| derive_seed(seed, k)).collect()
    }

    /// The workload's scenario under one scenario seed.
    pub fn scenario(&self, seed: u64) -> Result<Scenario> {
        let s = builtin(self.scenario)?
            .with_seed(seed)
            .with_slot_build(self.slot_build)
            .with_net(self.net);
        s.validate()?;
        Ok(s)
    }

    /// Whether the slot loop runs the virtual-time swarm.
    pub fn is_sim(&self) -> bool {
        self.scheduler.starts_with("auction_sim")
    }

    /// Whether the slot loop runs the wire stack.
    pub fn is_net(&self) -> bool {
        self.scheduler.starts_with("auction_net")
    }

    /// Whether the slot loop runs the flat engine, the only one that shards.
    pub fn is_flat(&self) -> bool {
        self.scheduler.starts_with("auction_flat")
    }

    /// A scheduler from the registry, leasing workers from `pool`.
    pub fn scheduler(
        &self,
        scenario: &Scenario,
        pool: &Arc<WorkerPool>,
    ) -> Result<Box<dyn ChunkScheduler>> {
        let spawner: Arc<dyn WorkerSpawner> = pool.clone();
        scheduler_for_runtime(scenario, self.scheduler, Some(spawner))
    }
}

/// A system ready for slot 0, with its events in firing order.
pub struct Rig {
    /// The running system.
    pub sys: System,
    /// The scenario's events, stably sorted by slot.
    pub events: Vec<TimedEvent>,
    /// The worker pool the system's scheduler leases from.
    pub pool: Arc<WorkerPool>,
}

impl Rig {
    /// Sets up one pass the way the scenario runner does: worker pool,
    /// scheduler, `System::new`, static peers and churn. `wrap` may wrap
    /// the scheduler before the system takes it.
    pub fn new(
        workload: &Workload,
        scenario: &Scenario,
        wrap: impl FnOnce(Box<dyn ChunkScheduler>) -> Box<dyn ChunkScheduler>,
    ) -> Result<Rig> {
        let pool = Arc::new(WorkerPool::new());
        let scheduler = workload.scheduler(scenario, &pool)?;
        let mut config = scenario.base_config();
        if workload.is_sim() {
            config.clock = ClockMode::Virtual;
        }
        let mut sys = System::new(config, wrap(scheduler))?;
        if scenario.initial_peers > 0 {
            sys.add_static_peers(scenario.initial_peers)?;
        }
        if scenario.churn {
            sys.enable_poisson_churn()?;
        }
        let mut events = scenario.events.clone();
        events.sort_by_key(|e| e.at_slot);
        Ok(Rig { sys, events, pool })
    }
}
