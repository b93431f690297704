//! The declarative scenario file format and its parser.
//!
//! Scenarios are data, not code. Because the build environment's `serde` is
//! a no-op shim, the format is a small self-contained TOML subset parsed by
//! hand:
//!
//! * top-level `key = value` lines describe the base workload (`name`,
//!   `description`, `profile`, `seed`, `slots`, `peers`, `churn`,
//!   `arrival_rate`, `seeds_per_video`, `slot_build`, `shards` —
//!   `"auto"` or a positive shard count for `auction_flat` and
//!   `auction_flat_warm` — and
//!   `net` — `"ideal"`, `"lan"` or `"lossy"`, the fault-injection
//!   preset for the virtual-time `auction_sim` schedulers);
//! * each `[[event]]` table adds one timed event;
//! * values are quoted strings, integers, floats or `true`/`false`;
//! * `#` starts a comment (outside quotes); blank lines are ignored.
//!
//! ```toml
//! name = "surge"                # CLI identifier
//! description = "a join surge"  # free text
//! profile = "small"             # "small" | "paper"
//! seed = 42
//! slots = 30
//! peers = 12                    # initial static watchers
//! churn = false                 # Poisson churn from slot 0
//!
//! [[event]]
//! at_slot = 8
//! kind = "flash_crowd"
//! peers = 40
//! video = 0                     # optional: pin the crowd to one title
//! ```
//!
//! Event kinds and their fields (all slots are 0-based, fired at slot
//! start): `flash_crowd` (`peers`, optional `video`/`isp`), `link_reprice`
//! (`factor`), `isp_outage` (`isp`, `factor`), `isp_recovery` (`isp`),
//! `seed_failure` (`count`, optional `video`), `late_seed` (`video`,
//! `isp`, optional `count` = 1), `churn_burst` (`rate`),
//! `popularity_shift` (`alpha`, `q`), `isp_throttle` (`isp`, `factor`).
//!
//! Specs loaded from disk ([`parse_scenario_file`]) may additionally start
//! from a base spec with `include = "base.toml"` (path relative to the
//! including file): the derived file's top-level keys override the base's
//! key-by-key, and its `[[event]]` tables are appended after the base's.
//! Chains nest (a base may itself include) up to eight files; cycles are
//! rejected.

use crate::event::ScenarioEvent;
use crate::timeline::{Profile, Scenario, TimedEvent};
use p2p_types::{IspId, P2pError, Result, VideoId};

/// A parsed spec value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Bool(_) => "boolean",
        }
    }
}

/// One `key = value` binding with its source line (for error messages).
#[derive(Debug, Clone)]
struct Binding {
    key: String,
    value: Value,
    line: usize,
}

/// A flat table of bindings: the top level, or one `[[event]]`.
#[derive(Debug, Clone, Default)]
struct Table {
    bindings: Vec<Binding>,
    /// Line of the `[[event]]` header (0 for the top level).
    line: usize,
}

impl Table {
    fn get(&self, key: &str) -> Option<&Binding> {
        self.bindings.iter().find(|b| b.key == key)
    }

    fn check_known(&self, known: &[&str], context: &str) -> Result<()> {
        for b in &self.bindings {
            if !known.contains(&b.key.as_str()) {
                return Err(err(
                    b.line,
                    format!("unknown {context} key `{}` (expected one of {known:?})", b.key),
                ));
            }
        }
        Ok(())
    }

    fn str(&self, key: &str) -> Result<Option<String>> {
        match self.get(key) {
            None => Ok(None),
            Some(Binding { value: Value::Str(s), .. }) => Ok(Some(s.clone())),
            Some(b) => {
                Err(err(b.line, format!("`{key}` must be a string, got {}", b.value.type_name())))
            }
        }
    }

    fn u64(&self, key: &str) -> Result<Option<u64>> {
        match self.get(key) {
            None => Ok(None),
            Some(Binding { value: Value::Int(i), line, .. }) => u64::try_from(*i)
                .map(Some)
                .map_err(|_| err(*line, format!("`{key}` must be non-negative"))),
            Some(b) => {
                Err(err(b.line, format!("`{key}` must be an integer, got {}", b.value.type_name())))
            }
        }
    }

    fn f64(&self, key: &str) -> Result<Option<f64>> {
        match self.get(key) {
            None => Ok(None),
            Some(Binding { value: Value::Float(f), .. }) => Ok(Some(*f)),
            Some(Binding { value: Value::Int(i), .. }) => Ok(Some(*i as f64)),
            Some(b) => {
                Err(err(b.line, format!("`{key}` must be a number, got {}", b.value.type_name())))
            }
        }
    }

    fn bool(&self, key: &str) -> Result<Option<bool>> {
        match self.get(key) {
            None => Ok(None),
            Some(Binding { value: Value::Bool(v), .. }) => Ok(Some(*v)),
            Some(b) => {
                Err(err(b.line, format!("`{key}` must be true/false, got {}", b.value.type_name())))
            }
        }
    }

    fn require_u64(&self, key: &str) -> Result<u64> {
        self.u64(key)?.ok_or_else(|| err(self.line, format!("missing required key `{key}`")))
    }

    fn require_f64(&self, key: &str) -> Result<f64> {
        self.f64(key)?.ok_or_else(|| err(self.line, format!("missing required key `{key}`")))
    }

    fn require_str(&self, key: &str) -> Result<String> {
        self.str(key)?.ok_or_else(|| err(self.line, format!("missing required key `{key}`")))
    }

    /// The source line of a present key (table header line otherwise).
    fn line_of(&self, key: &str) -> usize {
        self.get(key).map_or(self.line, |b| b.line)
    }

    fn u32(&self, key: &str) -> Result<Option<u32>> {
        match self.u64(key)? {
            None => Ok(None),
            Some(v) => u32::try_from(v)
                .map(Some)
                .map_err(|_| err(self.line_of(key), format!("`{key}` = {v} is out of range"))),
        }
    }

    fn video(&self, key: &str) -> Result<Option<VideoId>> {
        Ok(self.u32(key)?.map(VideoId::new))
    }

    fn isp(&self, key: &str) -> Result<Option<IspId>> {
        match self.u64(key)? {
            None => Ok(None),
            Some(v) => u16::try_from(v)
                .map(|v| Some(IspId::new(v)))
                .map_err(|_| err(self.line_of(key), format!("`{key}` = {v} is out of range"))),
        }
    }

    fn require_isp(&self, key: &str) -> Result<IspId> {
        self.isp(key)?.ok_or_else(|| err(self.line, format!("missing required key `{key}`")))
    }
}

fn err(line: usize, reason: impl std::fmt::Display) -> P2pError {
    P2pError::invalid_config("scenario_spec", format!("line {line}: {reason}"))
}

/// Strips a trailing comment, respecting double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line: usize) -> Result<Value> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(err(line, "missing value"));
    }
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(err(line, "unterminated string"));
        };
        if inner.contains('"') {
            return Err(err(line, "embedded quotes are not supported"));
        }
        return Ok(Value::Str(inner.to_string()));
    }
    match raw {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(Value::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        if f.is_finite() {
            return Ok(Value::Float(f));
        }
    }
    Err(err(line, format!("cannot parse value `{raw}`")))
}

/// Splits the spec text into the top-level table and one table per
/// `[[event]]`.
fn tokenize(text: &str) -> Result<(Table, Vec<Table>)> {
    let mut top = Table::default();
    let mut events: Vec<Table> = Vec::new();
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[event]]" {
            events.push(Table { bindings: Vec::new(), line: line_no });
            continue;
        }
        if line.starts_with('[') {
            return Err(err(
                line_no,
                format!("unsupported section `{line}` (only [[event]] exists)"),
            ));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(line_no, format!("expected `key = value`, got `{line}`")));
        };
        let key = key.trim();
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(err(line_no, format!("invalid key `{key}`")));
        }
        let target = events.last_mut().unwrap_or(&mut top);
        if target.get(key).is_some() {
            return Err(err(line_no, format!("duplicate key `{key}`")));
        }
        target.bindings.push(Binding {
            key: key.to_string(),
            value: parse_value(value, line_no)?,
            line: line_no,
        });
    }
    Ok((top, events))
}

fn parse_event(table: &Table) -> Result<TimedEvent> {
    let at_slot = table.require_u64("at_slot")?;
    let kind = table.require_str("kind")?;
    let event = match kind.as_str() {
        "flash_crowd" => {
            table.check_known(&["at_slot", "kind", "peers", "video", "isp"], "flash_crowd")?;
            ScenarioEvent::FlashCrowd {
                peers: table.require_u64("peers")? as usize,
                video: table.video("video")?,
                isp: table.isp("isp")?,
            }
        }
        "link_reprice" => {
            table.check_known(&["at_slot", "kind", "factor"], "link_reprice")?;
            ScenarioEvent::LinkReprice { factor: table.require_f64("factor")? }
        }
        "isp_outage" => {
            table.check_known(&["at_slot", "kind", "isp", "factor"], "isp_outage")?;
            ScenarioEvent::IspOutage {
                isp: table.require_isp("isp")?,
                factor: table.require_f64("factor")?,
            }
        }
        "isp_recovery" => {
            table.check_known(&["at_slot", "kind", "isp"], "isp_recovery")?;
            ScenarioEvent::IspRecovery { isp: table.require_isp("isp")? }
        }
        "seed_failure" => {
            table.check_known(&["at_slot", "kind", "count", "video"], "seed_failure")?;
            ScenarioEvent::SeedFailure {
                count: table.require_u64("count")? as usize,
                video: table.video("video")?,
            }
        }
        "late_seed" => {
            table.check_known(&["at_slot", "kind", "video", "isp", "count"], "late_seed")?;
            ScenarioEvent::LateSeed {
                video: table
                    .video("video")?
                    .ok_or_else(|| err(table.line, "missing required key `video`"))?,
                isp: table.require_isp("isp")?,
                count: table.u64("count")?.unwrap_or(1) as usize,
            }
        }
        "churn_burst" => {
            table.check_known(&["at_slot", "kind", "rate"], "churn_burst")?;
            ScenarioEvent::ChurnBurst { rate: table.require_f64("rate")? }
        }
        "popularity_shift" => {
            table.check_known(&["at_slot", "kind", "alpha", "q"], "popularity_shift")?;
            ScenarioEvent::PopularityShift {
                alpha: table.require_f64("alpha")?,
                q: table.require_f64("q")?,
            }
        }
        "isp_throttle" => {
            table.check_known(&["at_slot", "kind", "isp", "factor"], "isp_throttle")?;
            ScenarioEvent::IspThrottle {
                isp: table.require_isp("isp")?,
                factor: table.require_f64("factor")?,
            }
        }
        other => return Err(err(table.line, format!("unknown event kind `{other}`"))),
    };
    Ok(TimedEvent { at_slot, event })
}

/// Parses a scenario spec (see the module docs for the format) and
/// validates the result.
///
/// # Errors
///
/// Returns [`P2pError::InvalidConfig`] with a line-numbered message for
/// malformed specs, and scenario-validation errors for well-formed specs
/// describing impossible scenarios.
///
/// # Examples
///
/// ```
/// let spec = r#"
/// name = "demo"
/// description = "one flash crowd"
/// slots = 10
/// peers = 5
///
/// [[event]]
/// at_slot = 4
/// kind = "flash_crowd"
/// peers = 20
/// "#;
/// let s = p2p_scenario::parse_scenario(spec).unwrap();
/// assert_eq!(s.name, "demo");
/// assert_eq!(s.events.len(), 1);
/// ```
pub fn parse_scenario(text: &str) -> Result<Scenario> {
    let (top, event_tables) = tokenize(text)?;
    if let Some(b) = top.get("include") {
        return Err(err(
            b.line,
            "`include` needs a base directory to resolve against — \
             load this spec with `parse_scenario_file`",
        ));
    }
    scenario_from_tables(top, event_tables)
}

/// How deep `include` chains may nest before the loader assumes a mistake.
const MAX_INCLUDE_DEPTH: usize = 8;

/// Loads a spec file, resolving `include = "base.toml"` chains relative to
/// each including file's directory. The including file's top-level keys
/// override the base's key-by-key; its `[[event]]` tables are appended
/// after the base's (events never override each other — a derived scenario
/// adds to the timeline, it does not edit it).
///
/// # Errors
///
/// Everything [`parse_scenario`] rejects, plus unreadable files, include
/// cycles, and chains deeper than eight files.
///
/// # Examples
///
/// ```no_run
/// let s = p2p_scenario::parse_scenario_file("scenarios/flash_crowd_net.toml").unwrap();
/// assert!(!s.name.is_empty());
/// ```
pub fn parse_scenario_file(path: impl AsRef<std::path::Path>) -> Result<Scenario> {
    let mut visited = Vec::new();
    let (top, events) = load_tables(path.as_ref(), &mut visited)?;
    scenario_from_tables(top, events)
}

/// Recursive worker for [`parse_scenario_file`]: returns the file's tables
/// with any `include` chain already merged in (and the `include` binding
/// consumed). `visited` doubles as the cycle detector and depth meter.
fn load_tables(
    path: &std::path::Path,
    visited: &mut Vec<std::path::PathBuf>,
) -> Result<(Table, Vec<Table>)> {
    let file_err = |reason: String| P2pError::invalid_config("scenario_spec", reason);
    let canonical = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    if visited.contains(&canonical) {
        return Err(file_err(format!("include cycle through `{}`", path.display())));
    }
    if visited.len() >= MAX_INCLUDE_DEPTH {
        return Err(file_err(format!(
            "include chain deeper than {MAX_INCLUDE_DEPTH} files at `{}`",
            path.display()
        )));
    }
    visited.push(canonical);
    let text = std::fs::read_to_string(path)
        .map_err(|e| file_err(format!("cannot read `{}`: {e}", path.display())))?;
    let (mut top, mut events) =
        tokenize(&text).map_err(|e| file_err(format!("{}: {e}", path.display())))?;
    let include = top.str("include").map_err(|e| file_err(format!("{}: {e}", path.display())))?;
    if let Some(rel) = include {
        top.bindings.retain(|b| b.key != "include");
        let base_path = path.parent().unwrap_or(std::path::Path::new(".")).join(rel);
        let (base_top, base_events) = load_tables(&base_path, visited)?;
        // Base first, then this file's overrides win key-by-key.
        let mut merged = base_top;
        for b in top.bindings {
            match merged.bindings.iter().position(|m| m.key == b.key) {
                Some(i) => merged.bindings[i] = b,
                None => merged.bindings.push(b),
            }
        }
        top = merged;
        let mut all_events = base_events;
        all_events.append(&mut events);
        events = all_events;
    }
    Ok((top, events))
}

/// Builds and validates a [`Scenario`] from tokenized (and possibly
/// include-merged) tables.
fn scenario_from_tables(top: Table, event_tables: Vec<Table>) -> Result<Scenario> {
    top.check_known(
        &[
            "name",
            "description",
            "profile",
            "seed",
            "slots",
            "peers",
            "churn",
            "arrival_rate",
            "seeds_per_video",
            "slot_build",
            "shards",
            "net",
        ],
        "scenario",
    )?;
    let mut scenario =
        Scenario::new(top.require_str("name")?, top.str("description")?.unwrap_or_default());
    if let Some(profile) = top.str("profile")? {
        scenario.profile = Profile::from_name(&profile)?;
    }
    if let Some(seed) = top.u64("seed")? {
        scenario.seed = seed;
    }
    if let Some(slots) = top.u64("slots")? {
        scenario.slots = slots;
    }
    if let Some(peers) = top.u64("peers")? {
        scenario.initial_peers = peers as usize;
    }
    if let Some(churn) = top.bool("churn")? {
        scenario.churn = churn;
    }
    scenario.arrival_rate = top.f64("arrival_rate")?;
    scenario.seeds_per_video = top.u32("seeds_per_video")?;
    if let Some(mode) = top.str("slot_build")? {
        scenario.slot_build = p2p_streaming::SlotBuild::from_name(&mode)?;
    }
    if let Some(net) = top.str("net")? {
        scenario.net = net;
    }
    // `shards` accepts both spellings: `shards = "auto"` and `shards = 8`.
    match top.get("shards") {
        None => {}
        Some(Binding { value: Value::Int(_), .. }) => {
            let n = top.u64("shards")?.expect("binding exists");
            scenario.shards = p2p_streaming::ShardCount::from_name(&n.to_string())?;
        }
        Some(_) => {
            let s = top.str("shards")?.expect("binding exists");
            scenario.shards = p2p_streaming::ShardCount::from_name(&s)?;
        }
    }
    for table in &event_tables {
        scenario.events.push(parse_event(table)?);
    }
    scenario.validate()?;
    Ok(scenario)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_spec_round_trips() {
        let spec = r#"
# demo scenario
name = "demo"                 # identifier
description = "all the knobs"
profile = "small"
seed = 9
slots = 30
peers = 8
churn = true
arrival_rate = 2.5

[[event]]
at_slot = 3
kind = "flash_crowd"
peers = 15
video = 1
isp = 0

[[event]]
at_slot = 5
kind = "isp_outage"
isp = 1
factor = 25.0

[[event]]
at_slot = 9
kind = "isp_recovery"
isp = 1

[[event]]
at_slot = 11
kind = "seed_failure"
count = 2

[[event]]
at_slot = 13
kind = "late_seed"
video = 0
isp = 1
count = 2

[[event]]
at_slot = 15
kind = "churn_burst"
rate = 10

[[event]]
at_slot = 17
kind = "popularity_shift"
alpha = 3.0
q = 0.5

[[event]]
at_slot = 19
kind = "isp_throttle"
isp = 0
factor = 0.3

[[event]]
at_slot = 21
kind = "link_reprice"
factor = 2.0
"#;
        let s = parse_scenario(spec).unwrap();
        assert_eq!(s.name, "demo");
        assert_eq!(s.seed, 9);
        assert_eq!(s.slots, 30);
        assert_eq!(s.initial_peers, 8);
        assert!(s.churn);
        assert_eq!(s.arrival_rate, Some(2.5));
        assert_eq!(s.events.len(), 9);
        assert_eq!(
            s.events[0].event,
            ScenarioEvent::FlashCrowd {
                peers: 15,
                video: Some(VideoId::new(1)),
                isp: Some(IspId::new(0)),
            }
        );
        assert_eq!(s.events[5].event, ScenarioEvent::ChurnBurst { rate: 10.0 });
    }

    #[test]
    fn defaults_fill_optional_top_keys() {
        let s = parse_scenario("name = \"bare\"\n").unwrap();
        assert_eq!(s.profile, Profile::Small);
        assert_eq!(s.seed, 42);
        assert!(!s.churn);
        assert_eq!(s.slot_build, p2p_streaming::SlotBuild::Cold);
        assert!(s.events.is_empty());
    }

    #[test]
    fn shards_key_parses_both_spellings_and_rejects_zero() {
        let s = parse_scenario("name = \"x\"\nshards = \"auto\"\n").unwrap();
        assert_eq!(s.shards, p2p_streaming::ShardCount::Auto);
        let s = parse_scenario("name = \"x\"\nshards = 8\n").unwrap();
        assert_eq!(s.shards, p2p_streaming::ShardCount::Fixed(8));
        let s = parse_scenario("name = \"x\"\nshards = \"4\"\n").unwrap();
        assert_eq!(s.shards, p2p_streaming::ShardCount::Fixed(4));
        let s = parse_scenario("name = \"x\"\n").unwrap();
        assert_eq!(s.shards, p2p_streaming::ShardCount::Auto);
        expect_err("name = \"x\"\nshards = 0\n", "positive");
        expect_err("name = \"x\"\nshards = \"lots\"\n", "positive");
    }

    #[test]
    fn slot_build_key_parses_and_rejects_unknown_modes() {
        let s = parse_scenario("name = \"x\"\nslot_build = \"incremental\"\n").unwrap();
        assert_eq!(s.slot_build, p2p_streaming::SlotBuild::Incremental);
        let s = parse_scenario("name = \"x\"\nslot_build = \"cold\"\n").unwrap();
        assert_eq!(s.slot_build, p2p_streaming::SlotBuild::Cold);
        expect_err("name = \"x\"\nslot_build = \"lukewarm\"\n", "unknown mode");
    }

    fn expect_err(spec: &str, needle: &str) {
        let e = parse_scenario(spec).unwrap_err().to_string();
        assert!(e.contains(needle), "error `{e}` should mention `{needle}`");
    }

    #[test]
    fn malformed_specs_report_line_numbers() {
        expect_err("name = \"x\"\nslots == 3\n", "line 2");
        expect_err("name = \"x\"\nwat\n", "key = value");
        expect_err("name = \"x\"\n[section]\n", "unsupported section");
        expect_err("name = \"x\"\nslots = \"ten\"\n", "integer");
        expect_err("name = \"x\"\nslots = -4\n", "non-negative");
        expect_err("name = \"x\"\nchurn = 3\n", "true/false");
        expect_err("name = \"x\"\nname = \"y\"\n", "duplicate");
        expect_err("name = \"x\"\nbogus_key = 1\n", "unknown scenario key");
        expect_err("name = \"x\"\ndescription = \"unterminated\n", "unterminated");
        expect_err("slots = 5\n", "missing required key `name`");
        expect_err("name = \"x\"\nprofile = \"huge\"\n", "unknown profile");
    }

    #[test]
    fn malformed_events_are_rejected() {
        let base = "name = \"x\"\nslots = 20\n\n[[event]]\n";
        expect_err(&format!("{base}at_slot = 1\nkind = \"warp_drive\"\n"), "unknown event kind");
        expect_err(&format!("{base}kind = \"link_reprice\"\nfactor = 2.0\n"), "at_slot");
        expect_err(&format!("{base}at_slot = 1\nkind = \"link_reprice\"\n"), "factor");
        expect_err(
            &format!("{base}at_slot = 1\nkind = \"link_reprice\"\nfactor = 2.0\nisp = 0\n"),
            "unknown link_reprice key",
        );
        expect_err(
            &format!("{base}at_slot = 99\nkind = \"link_reprice\"\nfactor = 2.0\n"),
            "horizon",
        );
        expect_err(&format!("{base}at_slot = 1\nkind = \"late_seed\"\nisp = 0\n"), "video");
        // Ids that would truncate must error, not silently wrap to id 0.
        expect_err(
            &format!("{base}at_slot = 1\nkind = \"isp_recovery\"\nisp = 65536\n"),
            "out of range",
        );
        expect_err(
            &format!("{base}at_slot = 1\nkind = \"seed_failure\"\ncount = 1\nvideo = 4294967296\n"),
            "out of range",
        );
    }

    #[test]
    fn comments_and_quotes_interact_correctly() {
        let s = parse_scenario("name = \"has # hash\" # real comment\n").unwrap();
        assert_eq!(s.name, "has # hash");
    }

    /// A throwaway spec directory for the include tests; removed on drop.
    struct SpecDir(std::path::PathBuf);

    impl SpecDir {
        fn new(label: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("p2p-spec-{label}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            SpecDir(dir)
        }

        fn write(&self, name: &str, text: &str) -> std::path::PathBuf {
            let path = self.0.join(name);
            std::fs::write(&path, text).unwrap();
            path
        }
    }

    impl Drop for SpecDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn include_merges_base_with_child_overrides_winning() {
        let dir = SpecDir::new("merge");
        dir.write(
            "base.toml",
            "name = \"base\"\nslots = 30\npeers = 8\nseed = 7\n\n\
             [[event]]\nat_slot = 3\nkind = \"flash_crowd\"\npeers = 15\n",
        );
        let child = dir.write(
            "derived.toml",
            "include = \"base.toml\"\nname = \"derived\"\npeers = 20\n\n\
             [[event]]\nat_slot = 5\nkind = \"link_reprice\"\nfactor = 2.0\n",
        );
        let s = parse_scenario_file(&child).unwrap();
        // Child keys override, untouched base keys survive.
        assert_eq!(s.name, "derived");
        assert_eq!(s.initial_peers, 20);
        assert_eq!(s.slots, 30);
        assert_eq!(s.seed, 7);
        // Events concatenate base-first.
        assert_eq!(s.events.len(), 2);
        assert!(matches!(s.events[0].event, ScenarioEvent::FlashCrowd { .. }));
        assert!(matches!(s.events[1].event, ScenarioEvent::LinkReprice { .. }));
    }

    #[test]
    fn include_chains_nest_and_closest_override_wins() {
        let dir = SpecDir::new("chain");
        dir.write("a.toml", "name = \"a\"\nslots = 10\npeers = 4\nseed = 1\n");
        dir.write("b.toml", "include = \"a.toml\"\nslots = 20\nseed = 2\n");
        let c = dir.write("c.toml", "include = \"b.toml\"\nseed = 3\n");
        let s = parse_scenario_file(&c).unwrap();
        assert_eq!(s.name, "a");
        assert_eq!(s.slots, 20);
        assert_eq!(s.seed, 3);
        assert_eq!(s.initial_peers, 4);
    }

    #[test]
    fn include_rejects_cycles_missing_files_and_string_parsing() {
        let dir = SpecDir::new("bad");
        dir.write("x.toml", "include = \"y.toml\"\nname = \"x\"\n");
        let y = dir.write("y.toml", "include = \"x.toml\"\nname = \"y\"\n");
        let e = parse_scenario_file(&y).unwrap_err().to_string();
        assert!(e.contains("cycle"), "{e}");

        let gone = dir.write("gone.toml", "include = \"nope.toml\"\nname = \"g\"\n");
        let e = parse_scenario_file(&gone).unwrap_err().to_string();
        assert!(e.contains("cannot read"), "{e}");

        // The string-only entry point has no directory to resolve against.
        expect_err("include = \"base.toml\"\nname = \"x\"\n", "parse_scenario_file");
    }

    #[test]
    fn floats_accept_integer_literals() {
        let s = parse_scenario(
            "name = \"x\"\nslots = 9\n\n[[event]]\nat_slot = 1\nkind = \"churn_burst\"\nrate = 5\n",
        )
        .unwrap();
        assert_eq!(s.events[0].event, ScenarioEvent::ChurnBurst { rate: 5.0 });
    }
}
