//! Integration test: the flat CSR auction end to end through the facade —
//! every built-in scenario scheduled by `auction_flat` produces slot
//! metrics **bit-identical** to its nested-layout counterpart (`auction`
//! at shards = 1, the sequential [`ShardedAuctionScheduler`] oracle at
//! shards ≥ 2; warm variants included), every slot the flat engine
//! schedules conserves chunks and carries the Theorem 1 certificate, the
//! incremental slot-build path feeds the flat scheduler its cache-emitted
//! CSR, and repeated scenario runs on one shared `WorkerPool` spawn zero
//! new threads.

use isp_p2p::prelude::*;
use isp_p2p::scenario::BUILTIN_NAMES;
use isp_p2p::sched::ScheduleStats;
use std::sync::Arc;

/// Every built-in scenario under `auction_flat` is bit-identical, slot by
/// slot, to the nested scheduler with the same shard count — in both
/// slot-build modes, so the cache-emitted CSR path is covered too.
#[test]
fn every_builtin_is_bit_identical_to_the_nested_scheduler() {
    for name in BUILTIN_NAMES {
        for shards in [ShardCount::Fixed(1), ShardCount::Fixed(4)] {
            for slot_build in [SlotBuild::Cold, SlotBuild::Incremental] {
                let scenario =
                    builtin(name).unwrap().with_shards(shards).with_slot_build(slot_build).quick(6);
                let nested: Box<dyn ChunkScheduler> = if shards == ShardCount::Fixed(1) {
                    scheduler_for(&scenario, "auction").unwrap()
                } else {
                    Box::new(ShardedAuctionScheduler::paper(shards))
                };
                let report = run_scenario(
                    &scenario,
                    vec![nested, scheduler_for(&scenario, "auction_flat").unwrap()],
                )
                .unwrap();
                let nested = &report.runs[0].summary.scheduler;
                assert_eq!(report.runs[1].summary.scheduler, "auction_flat");
                assert_eq!(
                    report.runs[0].recorder.slots(),
                    report.runs[1].recorder.slots(),
                    "{name}: auction_flat diverged from {nested} at {shards:?} ({slot_build:?})"
                );
                assert!(report.runs[1].summary.transfers > 0, "{name}: the swarm must download");
            }
        }
    }
}

/// Warm-started flat scheduling composes with the price carry identically
/// to the nested warm schedulers, across scenario event sequences.
#[test]
fn warm_flat_sweeps_match_nested_warm_sweeps() {
    for name in ["flash_crowd", "isp_outage"] {
        let scenario = builtin(name).unwrap().with_shards(ShardCount::Fixed(4)).quick(6);
        let report = run_scenario(
            &scenario,
            vec![
                Box::new(ShardedAuctionScheduler::paper(ShardCount::Fixed(4)).warm_start()),
                scheduler_for(&scenario, "auction_flat_warm").unwrap(),
            ],
        )
        .unwrap();
        assert_eq!(
            report.runs[0].recorder.slots(),
            report.runs[1].recorder.slots(),
            "{name}: warm flat diverged from warm sharded"
        );
    }
}

/// `shards = auto` adapts to the live slot size identically for both
/// layouts (the ROADMAP's adaptive-shard follow-on), so the sweeps agree
/// there too.
#[test]
fn auto_shards_sweep_identically() {
    let scenario = builtin("flash_crowd").unwrap().with_shards(ShardCount::Auto).quick(6);
    let report = run_scenario(
        &scenario,
        vec![
            Box::new(ShardedAuctionScheduler::paper(ShardCount::Auto)),
            scheduler_for(&scenario, "auction_flat").unwrap(),
        ],
    )
    .unwrap();
    assert_eq!(report.runs[0].recorder.slots(), report.runs[1].recorder.slots());
}

/// Conservation + Theorem 1 on every slot of every built-in scenario: the
/// flat engine's assignment at eight shards is primal-feasible (each
/// request served at most once, provider capacities respected) and the
/// primal/dual pair passes the complementary-slackness certificate within
/// the ε-auction's `n·ε` tolerance. (Streaming slots carry structural ties,
/// so the ε > 0 configuration is the certified one — same caveat as the
/// synchronous engine's scenario suite.)
#[test]
fn flat_slots_conserve_chunks_and_stay_certified() {
    const EPS: f64 = 1e-2;
    for name in BUILTIN_NAMES {
        let scenario = builtin(name).unwrap().quick(8);
        let mut events: Vec<&TimedEvent> = scenario.events.iter().collect();
        events.sort_by_key(|e| e.at_slot);
        let mut sys =
            System::new(scenario.base_config(), Box::new(AuctionScheduler::paper())).unwrap();
        if scenario.initial_peers > 0 {
            sys.add_static_peers(scenario.initial_peers).unwrap();
        }
        if scenario.churn {
            sys.enable_poisson_churn().unwrap();
        }
        let mut engine = FlatAuction::new(AuctionConfig::with_epsilon(EPS), ShardCount::Fixed(8));
        for slot in 0..scenario.slots {
            for e in events.iter().filter(|e| e.at_slot == slot) {
                e.event.apply(&mut sys).unwrap();
            }
            let problem = sys.prepare_slot().unwrap();
            let outcome = engine.run(&problem.csr_instance()).unwrap();
            // Chunk-delivery conservation (primal feasibility).
            assert!(
                outcome.assignment.validate(&problem.instance).is_ok(),
                "{name} slot {slot}: infeasible assignment"
            );
            // Theorem 1: certified optimal within the ε-auction tolerance.
            let tol = EPS * (problem.instance.request_count() as f64 + 1.0);
            let report =
                verify_optimality(&problem.instance, &outcome.assignment, &outcome.duals, tol);
            assert!(report.is_optimal(), "{name} slot {slot}: violations {:?}", report.violations);
            let assigned = outcome.assignment.assigned_count() as u64;
            let metrics = sys
                .complete_slot(
                    &problem,
                    &Schedule { assignment: outcome.assignment, stats: ScheduleStats::default() },
                )
                .unwrap();
            assert_eq!(metrics.transfers, assigned, "{name} slot {slot}");
            assert!(metrics.inter_isp_transfers <= metrics.transfers, "{name} slot {slot}");
            assert!(metrics.missed_chunks <= metrics.due_chunks, "{name} slot {slot}");
        }
    }
}

/// One shared `WorkerPool` serves every flat scheduler of a sweep and
/// every sweep of a process: repeated runs spawn zero new threads beyond
/// the first lease.
#[test]
fn repeated_runs_on_one_shared_pool_spawn_zero_new_threads() {
    let pool = WorkerPool::new();
    let spawner: Arc<dyn WorkerSpawner> = Arc::new(pool.clone());
    let workers = 2;
    let scenario = builtin("flash_crowd").unwrap().with_shards(ShardCount::Fixed(4)).quick(4);
    let run_once = || {
        let scheduler = Box::new(
            isp_p2p::sched::FlatAuctionScheduler::paper(ShardCount::Fixed(4))
                .with_spawner(spawner.clone())
                .with_workers(workers),
        );
        let run = isp_p2p::scenario::run_one(&scenario, scheduler).unwrap();
        assert!(run.summary.transfers > 0);
        run.summary.table_row()
    };
    let first = run_once();
    let spawned_after_first = pool.spawned();
    assert!(
        spawned_after_first <= workers as u64,
        "one run leases at most {workers} workers, spawned {spawned_after_first}"
    );
    let second = run_once();
    assert_eq!(pool.spawned(), spawned_after_first, "repeated runs spawn zero new threads");
    assert_eq!(first, second, "shared-pool runs stay deterministic");
}

/// The incremental cache emits the CSR compilation directly: the flat
/// scheduler's problems carry it, and the emitted instance still matches
/// the cold oracle bit for bit.
#[test]
fn incremental_cache_emits_the_csr_compilation_directly() {
    let config = SystemConfig::small_test().with_seed(40).with_slot_build(SlotBuild::Incremental);
    let mut sys = System::new(
        config,
        Box::new(isp_p2p::sched::FlatAuctionScheduler::paper(ShardCount::Fixed(1))),
    )
    .unwrap();
    sys.add_static_peers(10).unwrap();
    for _ in 0..6 {
        let problem = sys.prepare_slot().unwrap();
        let csr = problem.csr.as_ref().expect("incremental builds attach the CSR");
        assert!(csr.matches(&problem.instance), "cache-emitted CSR must match the instance");
        let cold = sys.cold_slot_problem().unwrap();
        assert_eq!(problem, cold, "incremental emit must still match the cold oracle");
        assert!(cold.csr.is_none(), "the cold oracle compiles on demand instead");
        let schedule = isp_p2p::sched::FlatAuctionScheduler::paper(ShardCount::Fixed(1))
            .schedule(&problem)
            .unwrap();
        sys.complete_slot(&problem, &schedule).unwrap();
    }
}
