//! `perfbench` — the repository benchmark.
//!
//! Runs one scenario workload through the public slot loop
//! (`Scenario::base_config` → `System::new` → `ScenarioEvent::apply` →
//! `System::step_slot`) for a given time, checks every schedule, and
//! prints the end-to-end metrics; with `--trace 1` it instead drives the
//! loop itself with a span around each layer call and prints the
//! per-layer metrics. The last line of standard output is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload flash_crowd_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The exit code is 0 only when every check passed.

mod check;
mod host;
mod run;
mod stats;
mod trace;
mod traced;
mod workload;

use run::{measure, Measured};
use stats::{beyond, fastest_of, level_name, median, percentile, ratio, tail_level};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use traced::{measure_traced, Metric, TracedRun};
use workload::{Workload, WORKLOADS};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{flag}`"))?;
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        flags.insert(key.to_string(), value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// Prints the host and run facts that every result carries.
fn print_facts(args: &Args) {
    let w = &args.workload;
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={} available_cores={} rustc=\"{}\" commit={} held_out_seed={}",
        host::nproc(),
        p2p_core::available_cores(),
        host::RUSTC,
        host::git_commit(&root),
        host::HELD_OUT_SEED
    );
    println!(
        "input: scenario={} scheduler={} slot_build={} net={} scenario_seeds={:?}",
        w.scenario,
        w.scheduler,
        w.slot_build.name(),
        w.net,
        w.sub_seeds(args.seed)
    );
    println!(
        "load: closed loop, one slot in flight, one loop thread; net traffic on loopback only"
    );
}

/// The end-to-end metrics of an untraced run, the slots it attempted, and
/// one message per failure.
fn end_to_end(w: &Workload, m: &Measured) -> (Vec<Metric>, u64, Vec<String>) {
    let slots: Vec<f64> = m.passes.iter().flat_map(|p| p.slot_s.iter().copied()).collect();
    let attempted: u64 = m.passes.iter().map(|p| p.attempted()).sum();
    let errors: Vec<String> = m
        .passes
        .iter()
        .flat_map(|p| p.errors.iter().cloned())
        .chain(m.mismatches.iter().cloned())
        .collect();
    let failed = errors.len() as u64;
    for p in &m.passes {
        println!(
            "pass seed={} setup_s={:.6} slots={} loop_s={:.4} fingerprint={:016x}",
            p.seed,
            p.setup_s,
            p.attempted(),
            p.slot_s.iter().sum::<f64>(),
            p.hash
        );
    }
    // The tail level follows from the slots every run is guaranteed to
    // time, so it is the same percentile on every run of a workload. Where
    // the workload repeats each seed, a slot's tail sample is its fastest
    // time over the repeats, so the tail shows slots that are slow every
    // time rather than a stretch of the run when the host was busy.
    let per_pass = m.passes.iter().map(|p| p.requests.len() as u64).max().unwrap_or(0);
    let (tail_sample, guaranteed) = if w.tail_repeats > 1 {
        let timed: Vec<&[f64]> = m.passes.iter().map(|p| p.slot_s.as_slice()).collect();
        let sample = fastest_of(&timed, w.sub_seeds as usize, w.tail_repeats as usize);
        (sample, (w.sub_seeds * per_pass) as usize)
    } else {
        (slots.clone(), (w.min_passes * per_pass) as usize)
    };
    let level = tail_level(guaranteed).unwrap_or(500);
    println!(
        "slot_ms_tail is {} of {} slots, each the fastest of {} same-seed passes \
         ({} beyond it; at least {} slots per run)",
        level_name(level),
        tail_sample.len(),
        w.tail_repeats,
        beyond(tail_sample.len(), level),
        guaranteed
    );
    let spread: Vec<String> = [500, 750, 900, 950, 990, 1000]
        .iter()
        .map(|&l| format!("{}={:.3}", level_name(l), percentile(&slots, l) * 1e3))
        .collect();
    println!("slot_ms distribution: {}", spread.join(" "));
    let requests: Vec<f64> =
        m.passes.iter().flat_map(|p| p.requests.iter().map(|&r| r as f64)).collect();
    let edges: Vec<f64> = m.passes.iter().flat_map(|p| p.edges.iter().map(|&e| e as f64)).collect();
    println!(
        "input size: {} slots per pass; requests per slot p50={} max={}; edges per slot p50={} max={}",
        per_pass,
        median(&requests),
        percentile(&requests, 1000),
        median(&edges),
        percentile(&edges, 1000)
    );
    if w.is_flat() {
        let mut shards: BTreeMap<usize, u64> = BTreeMap::new();
        for s in m.passes.iter().flat_map(|p| &p.shards) {
            *shards.entry(*s).or_default() += 1;
        }
        let list: Vec<String> =
            shards.iter().map(|(s, n)| format!("{s} shards: {n} slots")).collect();
        println!("ShardCount::Auto resolved to: {}", list.join(", "));
    } else {
        println!("ShardCount::Auto resolved to: not used (this backend does not shard)");
    }
    // Outcome metrics: one pass per scenario seed, so they are the same on
    // every run with this seed.
    let firsts = &m.passes[..(w.sub_seeds as usize).min(m.passes.len())];
    let mut o = run::Outcome::default();
    for p in firsts {
        o.merge(&p.outcome);
    }
    let loop_s: f64 = slots.iter().filter(|s| s.is_finite()).sum();
    let total_requests: u64 = m.passes.iter().map(|p| p.total_requests()).sum();
    let metrics = vec![
        ("setup_s", median(&m.setup_s), "s"),
        ("slot_ms_p50", median(&slots) * 1e3, "ms"),
        ("slot_ms_tail", percentile(&tail_sample, level) * 1e3, "ms"),
        ("requests_per_s", ratio(total_requests as f64, loop_s), "req/s"),
        ("peak_rss_mb", host::peak_rss_mib().unwrap_or(f64::NAN), "MiB"),
        ("welfare", o.welfare / firsts.len().max(1) as f64, "utility"),
        ("inter_isp_share", ratio(o.inter_isp as f64, o.transfers as f64), "ratio"),
        ("miss_rate", ratio(o.missed as f64, o.due as f64), "ratio"),
        ("ok_share", ratio(attempted.saturating_sub(failed) as f64, attempted as f64), "ratio"),
    ];
    (metrics, attempted, errors)
}

/// The per-layer metrics of a traced run.
fn per_layer(args: &Args, run: &TracedRun) -> Vec<Metric> {
    println!("traced pairs (untraced + traced pass of one seed): {}", run.pairs);
    println!("self time per span name, per traced pass:");
    println!("  {:<20} {:>8} {:>12} {:>12}", "span", "calls", "total_ms", "self_ms");
    let passes = run.pairs.max(1) as f64;
    for (name, t) in run.tracer.by_name() {
        println!(
            "  {:<20} {:>8.1} {:>12.3} {:>12.3}",
            name,
            t.calls as f64 / passes,
            t.total_ns as f64 * 1e-6 / passes,
            t.self_ns as f64 * 1e-6 / passes
        );
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.tsv", args.workload.name, args.seed));
    match run.tracer.write_tsv(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written ({}): {e}", path.display()),
    }
    run.layers.metrics()
}

/// A JSON number, or `null` when not finite.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".into()
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    print_facts(&args);
    let w = args.workload;
    let (metrics, attempted, errors) = if args.trace {
        match measure_traced(&w, args.seed, args.seconds) {
            Ok(run) => (per_layer(&args, &run), run.attempted, run.errors),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match measure(&w, args.seed, args.seconds) {
            Ok(m) => end_to_end(&w, &m),
            Err(e) => {
                eprintln!("perfbench: set-up failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    for e in &errors {
        println!("FAILED {e}");
    }
    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    let failed = errors.len() as u64;
    let correct = failed == 0 && attempted > 0;
    println!("{}", json_line(correct, attempted.max(1), failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
