//! The document model's contract, per `presto.*.v1` schema:
//!
//! - **round trip**: over generated structs, `read(write(x)) == x` and
//!   two writes are byte-equal;
//! - **parent parity**: what the last hand-written writers printed for
//!   the values in `samples/` (checked in under `fixtures/`) is the same
//!   JSON tree the one writer prints, and reads back to the same value;
//!   the Prometheus expositions are byte-identical;
//! - **mutation**: every truncation, every bit flip and 10^5 random
//!   splices of each fixture (10^6 under the CI fault matrix, which sets
//!   `FAULT_SEED`) read as `Ok` or a typed `Err` — never a panic or hang;
//! - **drift**: the members the old per-schema validators forgot are
//!   refused by name.

mod samples;

use presto_telemetry::causal::CausalProfile;
use presto_telemetry::doc::{self, Document, Record, Scalar, Visitor};
use presto_telemetry::export::{self, parse_json, JsonValue, RunDocument};
use presto_telemetry::fleet::{self, ChaosLog, FleetDocument};
use presto_telemetry::timeseries::TimeSeriesDocument;
use presto_telemetry::{Snapshot, TenantsSnapshot};

/// SplitMix64: a seeded, dependency-free stream for the property and
/// mutation lanes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Fills any document with random values *through its own field
/// list*: each scalar is offered random JSON values until its kind
/// accepts one, arrays get random lengths. Members the list does not
/// visit keep their defaults, which is exactly what does not travel.
struct Randomize(Rng);

impl Randomize {
    fn string(&mut self) -> String {
        const ALPHABET: [&str; 12] = [
            "a", "Z", "7", " ", "\"", "\\", "\n", "\t", "\u{1}", "é", "×", "/",
        ];
        // Labels the enum kinds know, so those vary too.
        const LABELS: [&str; 7] = ["io", "cpu", "deliver", "done", "failed", "0xf1ee7", "up"];
        if self.0.below(3) == 0 {
            return LABELS[self.0.below(7) as usize].to_string();
        }
        (0..self.0.below(9))
            .map(|_| ALPHABET[self.0.below(12) as usize])
            .collect()
    }

    fn integer(&mut self) -> f64 {
        let bits = self.0.below(54);
        let magnitude = self.0.below(1 << bits) as f64;
        if self.0.below(4) == 0 {
            -magnitude
        } else {
            magnitude
        }
    }

    fn array<T: Default>(&mut self, items: &mut Vec<T>, mut each: impl FnMut(&mut Self, &mut T)) {
        items.clear();
        for _ in 0..self.0.below(4) {
            let mut item = T::default();
            each(self, &mut item);
            items.push(item);
        }
    }
}

impl Visitor for Randomize {
    fn scalar<T: Scalar>(&mut self, _name: &'static str, x: &mut T, _optional: bool) {
        for _ in 0..8 {
            let candidate = match self.0.below(4) {
                0 => JsonValue::Bool(self.0.below(2) == 0),
                1 => JsonValue::String(self.string()),
                _ => JsonValue::Number(self.integer()),
            };
            if let Some(value) = T::read(&candidate) {
                *x = value;
                return;
            }
        }
    }

    fn fixed(&mut self, _name: &'static str, x: &mut f64, digits: usize) {
        // Exactly representable at the printed precision.
        *x = self.0.below(1 << 40) as f64 / 10f64.powi(digits as i32);
    }

    fn derived(&mut self, _name: &'static str, _value: f64, _digits: usize) {}

    fn object(&mut self, _name: &'static str, _optional: bool, f: impl FnOnce(&mut Self)) {
        f(self);
    }

    fn records<R: Record + Default>(&mut self, _name: &'static str, items: &mut Vec<R>) {
        self.array(items, |v, r| r.fields(v));
    }

    fn rows<R: Record + Default>(&mut self, _name: &'static str, items: &mut Vec<R>) {
        self.array(items, |v, r| r.fields(v));
    }

    fn list<T: Scalar>(&mut self, _name: &'static str, items: &mut Vec<T>) {
        self.array(items, |v, x| v.scalar("", x, false));
    }
}

fn round_trips<D>(seed: u64, fix: impl Fn(&mut D))
where
    D: Document + Default + Clone + PartialEq + std::fmt::Debug,
{
    let mut random = Randomize(Rng(seed));
    for case in 0..300 {
        let mut value = D::default();
        value.fields(&mut random);
        fix(&mut value);
        let written = doc::write(value.clone());
        assert_eq!(written, doc::write(value.clone()), "two writes differ");
        match doc::read::<D>(&written) {
            Ok(read) => assert_eq!(read, value, "{}: case {case}\n{written}", D::SCHEMA),
            Err(e) => panic!(
                "{}: case {case} does not read back: {e}\n{written}",
                D::SCHEMA
            ),
        }
    }
}

#[test]
fn generated_documents_round_trip() {
    round_trips::<RunDocument>(1, |_| {});
    round_trips::<TimeSeriesDocument>(2, |_| {});
    round_trips::<FleetDocument>(3, |_| {});
    round_trips::<TenantsSnapshot>(4, |_| {});
    round_trips::<ChaosLog>(5, |_| {});
    // The causal document carries rules over the whole value: give
    // the random one a sorted, non-empty ranking headed by
    // `causal_top`, and speedups from the published matrix.
    round_trips::<CausalProfile>(6, |p| {
        p.ranking.push(Default::default());
        p.ranking.sort_by(|a, b| b.score.total_cmp(&a.score));
        p.verdicts.causal_top = p.ranking[0].step.clone();
        for e in &mut p.experiments {
            e.speedup_pct = [10, 25, 50, 75][(e.speedup_pct % 4) as usize];
        }
    });
}

const TELEMETRY: &str = include_str!("fixtures/telemetry.json");
const TIMESERIES: &str = include_str!("fixtures/timeseries.json");
const FLEET: &str = include_str!("fixtures/fleet.json");
const TENANTS: &str = include_str!("fixtures/tenants.json");
const CAUSAL: &str = include_str!("fixtures/causal.json");
const CHAOS: &str = include_str!("fixtures/chaos.json");

/// The new writer prints the tree the parent's writer printed, and the
/// parent's document reads back as the value it was written from.
fn same_as_parent<D>(fixture: &str, value: D)
where
    D: Document + Default + Clone + PartialEq + std::fmt::Debug,
{
    let written = doc::write(value.clone());
    assert_eq!(
        parse_json(&written),
        parse_json(fixture),
        "{}: tree differs from the parent's\n{written}",
        D::SCHEMA
    );
    assert_eq!(
        doc::read::<D>(fixture).as_ref(),
        Ok(&value),
        "{}",
        D::SCHEMA
    );
}

/// The one tree that holds every section.
fn tree() -> Snapshot {
    Snapshot {
        epoch: Some(samples::snapshot()),
        search: Some(samples::search()),
        serve: Some(samples::serve()),
        tenants: Some(samples::tenants()),
        fleet: Some(samples::fleet()),
    }
}

fn fleet_sample() -> FleetDocument {
    doc::read(&fleet::fleet_json(&tree())).expect("own fleet document reads")
}

#[test]
fn parent_written_fixtures_read_back_and_match_the_new_writer() {
    // Spans and `active` do not travel; `fleet_json` drops the three
    // `/metrics`-only serve gauges.
    let mut snapshot = samples::snapshot();
    snapshot.spans.clear();
    same_as_parent(
        TELEMETRY,
        RunDocument {
            mode: Some("serve".into()),
            snapshot,
        },
    );
    same_as_parent(
        TIMESERIES,
        TimeSeriesDocument {
            evicted: 5,
            points: samples::points(),
        },
    );
    same_as_parent(FLEET, fleet_sample());
    assert_eq!(fleet_sample().workers, samples::fleet().workers);
    assert_eq!(fleet_sample().client.spans, samples::snapshot().spans);
    same_as_parent(TENANTS, samples::tenants());
    same_as_parent(CAUSAL, samples::causal());
    let chaos: ChaosLog = doc::read(CHAOS).expect("parent's chaos log reads");
    assert_eq!(chaos.events.len(), 6);
    same_as_parent(CHAOS, chaos);
}

#[test]
fn layout_is_byte_identical_where_one_rule_reproduces_the_parent() {
    // telemetry, timeseries and chaos (and search, see tests/search.rs)
    // were already laid out by the rule; fleet, tenants and causal's
    // `alloc` were hand-wrapped and changed whitespace.
    let mut snapshot = samples::snapshot();
    snapshot.spans.clear();
    assert_eq!(export::json_with_mode(&snapshot, Some("serve")), TELEMETRY);
    let series = TimeSeriesDocument {
        evicted: 5,
        points: samples::points(),
    };
    assert_eq!(doc::write(series), TIMESERIES);
    assert_eq!(doc::write(doc::read::<ChaosLog>(CHAOS).unwrap()), CHAOS);
    let alloc = CAUSAL
        .find("  \"alloc\"")
        .expect("alloc is the last member");
    assert_eq!(doc::write(samples::causal())[..alloc], CAUSAL[..alloc]);
}

#[test]
fn committed_run_fixtures_still_read() {
    for fixture in [
        include_str!("../../../tests/fixtures/run-a.json"),
        include_str!("../../../tests/fixtures/run-b.json"),
        include_str!("../../../tests/fixtures/realrun-epoch.json"),
    ] {
        let run: RunDocument = doc::read(fixture).expect("committed fixture reads");
        assert_eq!(run.mode, None);
        assert!(run.snapshot.samples > 0 && !run.snapshot.steps.is_empty());
        assert_eq!(doc::read(&doc::write(run.clone())), Ok(run));
    }
}

/// The exposition of an epoch-less tree, past its first line.
fn section(tree: Snapshot) -> String {
    let body = export::prometheus(&tree);
    let section = body.strip_prefix(NO_EPOCH).expect("no epoch comes first");
    section.to_string()
}

const NO_EPOCH: &str = "# no epoch recorded yet\n";

#[test]
fn metrics_exposition_is_byte_identical_to_the_parent() {
    assert_eq!(
        export::prometheus(&samples::snapshot().into()),
        include_str!("fixtures/metrics-epoch.prom")
    );
    assert_eq!(
        section(Snapshot {
            search: Some(samples::search()),
            ..Snapshot::default()
        }),
        include_str!("fixtures/metrics-search.prom")
    );
    assert_eq!(
        section(Snapshot {
            serve: Some(samples::serve()),
            ..Snapshot::default()
        }),
        include_str!("fixtures/metrics-serve.prom")
    );
    assert_eq!(
        section(Snapshot {
            fleet: Some(samples::fleet()),
            ..Snapshot::default()
        }),
        include_str!("fixtures/metrics-fleet.prom")
    );
    assert_eq!(
        section(Snapshot {
            tenants: Some(samples::tenants()),
            ..Snapshot::default()
        }),
        include_str!("fixtures/metrics-tenants.prom")
    );
}

#[test]
fn one_tree_exposes_every_section_in_the_order_metrics_joined_them() {
    let joined = [
        include_str!("fixtures/metrics-epoch.prom"),
        include_str!("fixtures/metrics-search.prom"),
        include_str!("fixtures/metrics-serve.prom"),
        include_str!("fixtures/metrics-fleet.prom"),
        include_str!("fixtures/metrics-tenants.prom"),
    ]
    .concat();
    assert_eq!(export::prometheus(&tree()), joined);
    let no_epoch = Snapshot {
        epoch: None,
        ..tree()
    };
    let rest = &joined[include_str!("fixtures/metrics-epoch.prom").len()..];
    assert_eq!(export::prometheus(&no_epoch), format!("{NO_EPOCH}{rest}"));
}

/// Feed one mutated input through the reader. `Ok` or `Err` are both
/// fine; what is read must also survive its own rewrite.
fn survives<D: Document + Default + Clone>(bytes: &[u8]) {
    if let Ok(value) = doc::read::<D>(&String::from_utf8_lossy(bytes)) {
        let rewritten = doc::write(value);
        if let Err(e) = doc::read::<D>(&rewritten) {
            panic!(
                "{}: accepted, then refused its own rewrite: {e}\n{rewritten}",
                D::SCHEMA
            );
        }
    }
}

fn mutation_lane<D: Document + Default + Clone>(fixture: &str, rng: &mut Rng, splices: u64) {
    let original = fixture.as_bytes();
    for cut in 0..original.len() {
        survives::<D>(&original[..cut]);
    }
    let mut flipped = original.to_vec();
    for bit in 0..original.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        survives::<D>(&flipped);
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
    const TOKENS: [&[u8]; 12] = [
        b"[", b"{", b"]", b"}", b"\"", b",", b":", b"-1", b"1.5", b"1e999", b"null", b"\\u00",
    ];
    for _ in 0..splices {
        let at = rng.below(original.len() as u64) as usize;
        let drop = rng.below(17) as usize;
        let end = (at + drop).min(original.len());
        let mut spliced = original[..at].to_vec();
        match rng.below(3) {
            0 => spliced.extend((0..rng.below(9)).map(|_| rng.next() as u8)),
            1 => spliced.extend_from_slice(TOKENS[rng.below(12) as usize]),
            _ => {
                let from = rng.below(original.len() as u64) as usize;
                let len = rng.below(33) as usize;
                spliced.extend_from_slice(&original[from..(from + len).min(original.len())]);
            }
        }
        spliced.extend_from_slice(&original[end..]);
        survives::<D>(&spliced);
    }
}

#[test]
fn mutated_documents_never_panic_the_reader() {
    // The fault-injection CI matrix sets FAULT_SEED: there the lane
    // runs ten times longer, on that seed.
    let (seed, splices) = match std::env::var("FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(seed) => (seed, 1_000_000),
        None => (1, 100_000),
    };
    let mut rng = Rng(seed);
    mutation_lane::<RunDocument>(TELEMETRY, &mut rng, splices);
    mutation_lane::<TimeSeriesDocument>(TIMESERIES, &mut rng, splices);
    mutation_lane::<FleetDocument>(FLEET, &mut rng, splices);
    mutation_lane::<TenantsSnapshot>(TENANTS, &mut rng, splices);
    mutation_lane::<CausalProfile>(CAUSAL, &mut rng, splices);
    mutation_lane::<ChaosLog>(CHAOS, &mut rng, splices);
}

/// `document` with the first `"member": value, ` removed.
fn without(document: &str, member: &str) -> String {
    let key = format!("\"{member}\": ");
    let start = document.find(&key).unwrap_or_else(|| panic!("no {member}"));
    let len = document[start..].find(", ").expect("not the last member") + 2;
    format!("{}{}", &document[..start], &document[start + len..])
}

fn refusal<D: Document + Default + std::fmt::Debug>(document: &str) -> String {
    doc::read::<D>(document).expect_err("must be refused")
}

#[test]
fn members_the_old_validators_forgot_are_refused_by_name() {
    // fleet: `validate_fleet_json` never looked at a worker's samples /
    // batches / dropped_spans, `parse_fleet_json` required them.
    let fleet = doc::write(fleet_sample());
    for member in ["batches", "samples", "dropped_spans"] {
        let tail = fleet.find("\"workers\"").unwrap();
        let broken = format!("{}{}", &fleet[..tail], without(&fleet[tail..], member));
        let err = refusal::<FleetDocument>(&broken);
        assert!(err.contains(&format!("workers[0].{member}")), "{err}");
        assert!(fleet::merge_chrome_trace(&broken, None).is_err());
    }
    // tenants: `validate_tenants_json` skipped `in_window`.
    let tenants = doc::write(samples::tenants());
    let err = refusal::<TenantsSnapshot>(&without(&tenants, "in_window"));
    assert!(err.contains("tenants[0].in_window"), "{err}");
    // timeseries: every member the old validator skipped has been
    // written since the schema's first writer, so each is REQUIRED…
    for member in ["evicted", "epoch_seed", "skipped_samples", "lost_shards"] {
        let broken = TIMESERIES
            .replace(&format!("  \"{member}\": 5,\n"), "")
            .replace(&format!("\"{member}\": 41, "), "")
            .replace(&format!("\"{member}\": 0, "), "");
        let err = refusal::<TimeSeriesDocument>(&broken);
        assert!(err.contains(member), "{member}: {err}");
    }
    for member in ["kind", "invocations"] {
        let err = refusal::<TimeSeriesDocument>(&without(TIMESERIES, member));
        assert!(
            err.contains(&format!("points[0].steps[0].{member}")),
            "{err}"
        );
    }
    // …and only a point's `dropped_spans`, which is newer, is
    // TOLERATED ABSENT (and reads as 0).
    let legacy = TIMESERIES.replace("\"dropped_spans\": 7, ", "");
    let series: TimeSeriesDocument = doc::read(&legacy).expect("legacy point reads");
    assert_eq!(series.points[1].dropped_spans, 0);
}

#[test]
fn absence_is_tolerated_exactly_where_it_was() {
    let tolerated = [
        "  \"mode\": \"serve\",\n",
        ", \"seed\": 41",
        "\"kind\": \"io\", ",
        "\"deliver_ns\": 180000, ",
        "\"observations\": 12, ",
        "  \"data_plane\": {\"bundles\": 12, \"pool_hits\": 20, \"pool_misses\": 4},\n",
        "\"pool_hits\": 20, ",
        ",\n  \"dropped_spans\": 7",
    ];
    for member in tolerated {
        assert!(TELEMETRY.contains(member), "fixture lost {member:?}");
        let run = doc::read::<RunDocument>(&TELEMETRY.replacen(member, "", 1));
        assert!(run.is_ok(), "{member:?} must stay optional: {run:?}");
    }
    for required in [
        "elapsed_ns",
        "threads",
        "retries",
        "hits",
        "busy_ns",
        "capacity",
    ] {
        let err = refusal::<RunDocument>(&without(TELEMETRY, required));
        assert!(err.contains(required), "{required}: {err}");
    }
    // Unknown members are ignored at every level.
    let extended = TELEMETRY
        .replace("\"epoch\": {", "\"epoch\": {\"new\": [1, {}], ")
        .replace("{\n", "{\n  \"also_new\": null,\n");
    assert_eq!(
        doc::read::<RunDocument>(&extended),
        doc::read::<RunDocument>(TELEMETRY)
    );
}

/// One field of each integer kind, plus the kinds' shared refusals.
#[derive(Debug, Default, Clone, PartialEq)]
struct Kinds {
    a_u64: u64,
    a_u32: u32,
    an_i64: i64,
    a_usize: usize,
}

impl Record for Kinds {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("a_u64", &mut self.a_u64);
        v.req("a_u32", &mut self.a_u32);
        v.req("an_i64", &mut self.an_i64);
        v.req("a_usize", &mut self.a_usize);
    }
}

impl Document for Kinds {
    const SCHEMA: &'static str = "test.kinds.v1";
}

#[test]
fn integer_kinds_accept_only_exact_in_range_integers() {
    let document = |member: &str, value: &str| {
        let mut members: Vec<String> = ["a_u64", "a_u32", "an_i64", "a_usize"]
            .iter()
            .filter(|m| **m != member)
            .map(|m| format!("\"{m}\": 1"))
            .collect();
        if !value.is_empty() {
            members.push(format!("\"{member}\": {value}"));
        }
        format!("{{\"schema\": \"test.kinds.v1\", {}}}", members.join(", "))
    };
    // (value, accepted by u64, u32, i64, usize); "" = member missing.
    let table = [
        ("0", [true, true, true, true]),
        ("-0.0", [true, true, true, true]),
        ("7", [true, true, true, true]),
        ("7.0e0", [true, true, true, true]),
        ("-5", [false, false, true, false]),
        ("1.5", [false, false, false, false]),
        ("1e99", [false, false, false, false]),
        ("-1e99", [false, false, false, false]),
        ("\"NaN\"", [false, false, false, false]),
        ("true", [false, false, false, false]),
        ("null", [false, false, false, false]),
        ("", [false, false, false, false]),
        ("4294967295", [true, true, true, true]),
        ("4294967296", [true, false, true, true]),
        ("9007199254740992", [true, false, true, true]),
        ("-9007199254740992", [false, false, true, false]),
        ("9007199254740994", [false, false, false, false]),
        ("18446744073709551615", [false, false, false, false]),
    ];
    for (value, accepted) in table {
        for (member, accept) in ["a_u64", "a_u32", "an_i64", "a_usize"].iter().zip(accepted) {
            let read = doc::read::<Kinds>(&document(member, value));
            assert_eq!(read.is_ok(), accept, "{member} = {value:?}: {read:?}");
            if let Err(e) = read {
                assert!(e.contains(member), "error must name {member}: {e}");
            }
        }
    }
    // What the old `as` casts made of the issue's example.
    let old = "{\"schema\": \"presto.tenants.v1\", \"max_jobs\": -5, \"shard_quota\": 1e99, \
               \"rejected\": 1.5, \"window\": {\"open\": true, \"closed\": false}, \"tenants\": []}";
    assert!(refusal::<TenantsSnapshot>(old).contains("max_jobs"));
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    for unit in ["[", "{\"a\":"] {
        let err = parse_json(&unit.repeat(1_000_000)).expect_err("unbalanced");
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }
    let deepest = format!("{}1{}", "[".repeat(128), "]".repeat(128));
    assert!(parse_json(&deepest).is_ok());
    assert!(parse_json(&format!("[{deepest}]")).is_err());
    assert!(doc::read::<RunDocument>(&"[".repeat(1_000_000)).is_err());
}

#[test]
fn non_ascii_strings_survive_the_parser() {
    let text = "decode(8×8) — é\u{1F980}";
    let parsed = parse_json(&format!("\"{}\"", export::json_escape(text))).unwrap();
    assert_eq!(parsed.as_str(), Some(text));
}

#[test]
fn get_stops_reading_an_oversized_response() {
    use std::io::{BufRead, BufReader, Write};
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Drain the whole request: closing with unread input resets
        // the connection under the client instead of ending it.
        let mut request = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        while request.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
            line.clear();
        }
        let _ = stream.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n");
        // 65 MiB of body; the client hangs up once past its bound.
        let chunk = vec![b'['; 1 << 20];
        let mut sent = 0u64;
        for _ in 0..65 {
            if stream.write_all(&chunk).is_err() {
                break;
            }
            sent += chunk.len() as u64;
        }
        sent
    });
    let err = presto_telemetry::http::get(addr, "/tenants.json").expect_err("over the bound");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(server.join().unwrap() <= 65 << 20);
}

/// Lists a document's members as `docs/observability.md` tabulates
/// them: path, kind, presence.
#[derive(Default)]
struct Describe {
    path: String,
    rows: Vec<String>,
}

impl Describe {
    fn row(&mut self, name: &str, kind: &str, presence: &str) {
        let kind = kind.trim_start_matches("an ").trim_start_matches("a ");
        self.rows
            .push(format!("| `{}{name}` | {kind} | {presence} |", self.path));
    }

    fn nested(&mut self, segment: &str, f: impl FnOnce(&mut Self)) {
        let base = self.path.len();
        self.path.push_str(segment);
        f(self);
        self.path.truncate(base);
    }
}

impl Visitor for Describe {
    fn scalar<T: Scalar>(&mut self, name: &'static str, _x: &mut T, optional: bool) {
        self.row(
            name,
            T::KIND,
            if optional { "optional" } else { "required" },
        );
    }

    fn fixed(&mut self, name: &'static str, _x: &mut f64, digits: usize) {
        self.row(name, &format!("number, {digits} decimals"), "required");
    }

    fn derived(&mut self, name: &'static str, _value: f64, digits: usize) {
        self.row(name, &format!("number, {digits} decimals"), "derived");
    }

    fn object(&mut self, name: &'static str, _optional: bool, f: impl FnOnce(&mut Self)) {
        self.nested(&format!("{name}."), f);
    }

    fn records<R: Record + Default>(&mut self, name: &'static str, _items: &mut Vec<R>) {
        self.nested(&format!("{name}[]."), |d| R::default().fields(d));
    }

    fn rows<R: Record + Default>(&mut self, name: &'static str, _items: &mut Vec<R>) {
        let mut columns = Describe::default();
        R::default().fields(&mut columns);
        let names: Vec<&str> = columns
            .rows
            .iter()
            .filter_map(|row| row.split('`').nth(1))
            .collect();
        self.row(
            &format!("{name}[]"),
            &format!("row `[{}]`", names.join(", ")),
            "required",
        );
    }

    fn list<T: Scalar>(&mut self, name: &'static str, _items: &mut Vec<T>) {
        self.row(&format!("{name}[]"), T::KIND, "required");
    }
}

fn table<D: Document + Default>() -> String {
    let mut describe = Describe::default();
    D::default().fields(&mut describe);
    format!(
        "| `{}` member | kind | presence |\n|---|---|---|\n{}\n",
        D::SCHEMA,
        describe.rows.join("\n")
    )
}

#[test]
fn observability_md_tabulates_the_field_lists() {
    let docs = include_str!("../../../docs/observability.md");
    let tables = [
        table::<RunDocument>(),
        table::<TimeSeriesDocument>(),
        table::<FleetDocument>(),
        table::<ChaosLog>(),
        table::<TenantsSnapshot>(),
        table::<CausalProfile>(),
    ];
    for table in &tables {
        assert!(
            docs.contains(table.as_str()),
            "docs/observability.md is out of date; its schema reference must contain:\n\n{}",
            tables.join("\n")
        );
    }
}
