//! Multi-tenant observability for the `fleetd` daemon.
//!
//! One preprocessing fleet serves many training jobs; this module is
//! where the daemon's per-tenant accounting lives so the fairness
//! claim is *observable*, not folklore:
//!
//! - [`TenantsProgress`]: the live registry `fleetd` writes as jobs
//!   register, deliver samples, requeue shards and finish.
//! - **Fair-share window**: weighted fairness is only defined while
//!   tenants actually compete. The registry re-baselines per-tenant
//!   delivery counters whenever the set of serving tenants *grows*
//!   and freezes the window at the first finish — the frozen
//!   `window_samples` cover exactly the all-tenants-active interval,
//!   which is what the CI gate compares against the weights.
//! - [`TenantsSnapshot`] is the tenants section of a process tree
//!   ([`crate::Snapshot`]) and itself the stable `presto.tenants.v1`
//!   document served at `/tenants.json`: written and read through
//!   [`crate::doc`] from its one field list. `/metrics` projects it as
//!   per-tenant labeled series (`presto_serve_batches_total{tenant="…"}`
//!   …) plus the back-compatible unlabeled sums the single-tenant
//!   dashboards already scrape.

use crate::doc::{Document, Record, Scalar, Visitor};
use crate::export::JsonValue;
use crate::fleet::mono_ns;
use parking_lot::Mutex;
use std::fmt::Write as _;

/// Schema identifier of the tenants document.
pub const TENANTS_SCHEMA: &str = "presto.tenants.v1";

/// Lifecycle of a registered tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TenantState {
    /// Admitted and (presumed) assigning shards.
    #[default]
    Serving,
    /// Epoch delivered completely.
    Done,
    /// Fault budget exhausted or client lost; the job did not finish.
    Failed,
}

impl TenantState {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            TenantState::Serving => "serving",
            TenantState::Done => "done",
            TenantState::Failed => "failed",
        }
    }
}

/// One tenant's accounting, as exposed by [`TenantsProgress::snapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantEntry {
    /// Tenant (job) name from REGISTER.
    pub name: String,
    /// Deficit-round-robin weight from REGISTER.
    pub weight: u32,
    /// Where the job is in its lifecycle.
    pub state: TenantState,
    /// Shards the job declared at REGISTER.
    pub shards_total: u64,
    /// Shards delivered to EOF.
    pub shards_done: u64,
    /// Shards put back on the queue after a backend failure — this
    /// tenant's fault-budget consumption, never anyone else's.
    pub requeues: u64,
    /// Samples delivered to this tenant's client.
    pub samples: u64,
    /// BATCH frames relayed to this tenant's client.
    pub batches: u64,
    /// Compressed block bytes relayed.
    pub bytes: u64,
    /// True when the tenant participates in the fair-share window.
    pub in_window: bool,
    /// Samples delivered inside the fair-share window (frozen once
    /// the window closes; live delta while it is open).
    pub window_samples: u64,
    /// Serving wall time so far (admission → finish/now), ns.
    pub elapsed_ns: u64,
}

impl TenantEntry {
    fn new(name: &str, weight: u32, shards_total: u64) -> Self {
        TenantEntry {
            name: name.to_string(),
            weight: weight.max(1),
            shards_total,
            ..TenantEntry::default()
        }
    }
}

/// Point-in-time copy of the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantsSnapshot {
    /// Admission policy: max concurrently admitted jobs.
    pub max_jobs: u64,
    /// Admission policy: per-tenant shard quota.
    pub shard_quota: u64,
    /// Registrations refused by the admission controller.
    pub rejected: u64,
    /// True while the fair-share window is measuring.
    pub window_open: bool,
    /// True once the window froze (first tenant finished).
    pub window_closed: bool,
    /// Every tenant that was ever admitted, registration order.
    pub tenants: Vec<TenantEntry>,
}

impl TenantsSnapshot {
    /// Weighted fair share of `name` among window participants
    /// (weight over the sum of participant weights), or `None` when
    /// the tenant is absent or outside the window.
    pub fn fair_share(&self, name: &str) -> Option<f64> {
        let total: u64 = self
            .tenants
            .iter()
            .filter(|t| t.in_window)
            .map(|t| u64::from(t.weight))
            .sum();
        let tenant = self.tenants.iter().find(|t| t.name == name)?;
        if !tenant.in_window || total == 0 {
            return None;
        }
        Some(f64::from(tenant.weight) / total as f64)
    }

    /// Measured share of `name`: its window samples over all window
    /// samples. `None` outside the window or before anything moved.
    pub fn measured_share(&self, name: &str) -> Option<f64> {
        let total: u64 = self
            .tenants
            .iter()
            .filter(|t| t.in_window)
            .map(|t| t.window_samples)
            .sum();
        let tenant = self.tenants.iter().find(|t| t.name == name)?;
        if !tenant.in_window || total == 0 {
            return None;
        }
        Some(tenant.window_samples as f64 / total as f64)
    }
}

#[derive(Debug)]
struct TenantSlot {
    entry: TenantEntry,
    /// Delivery counter reading when the window (re)opened; `None`
    /// when the tenant is outside the window.
    window_base: Option<u64>,
    admitted_mono_ns: u64,
    finished_mono_ns: u64,
}

#[derive(Debug, Default)]
struct TenantsState {
    max_jobs: u64,
    shard_quota: u64,
    rejected: u64,
    window_open: bool,
    window_closed: bool,
    tenants: Vec<TenantSlot>,
}

impl TenantsState {
    fn slot_mut(&mut self, name: &str) -> Option<&mut TenantSlot> {
        self.tenants.iter_mut().find(|t| t.entry.name == name)
    }

    fn serving(&self) -> usize {
        self.tenants
            .iter()
            .filter(|t| t.entry.state == TenantState::Serving)
            .count()
    }

    /// (Re)open the fair-share window over every currently serving
    /// tenant: their delivery counters become the new baselines.
    /// Called when the serving set grows to ≥ 2 — fairness before
    /// that is vacuous (nobody competes with one job).
    fn rebaseline(&mut self) {
        if self.window_closed {
            return; // first frozen window wins: it covers all-active
        }
        self.window_open = true;
        for slot in &mut self.tenants {
            if slot.entry.state == TenantState::Serving {
                slot.window_base = Some(slot.entry.samples);
            } else {
                slot.window_base = None;
            }
        }
    }

    /// Freeze the window at the first finish: every participant's
    /// `window_samples` becomes the delta since the last rebaseline.
    fn freeze(&mut self) {
        if !self.window_open || self.window_closed {
            return;
        }
        self.window_closed = true;
        for slot in &mut self.tenants {
            if let Some(base) = slot.window_base {
                slot.entry.in_window = true;
                slot.entry.window_samples = slot.entry.samples.saturating_sub(base);
            }
        }
    }
}

/// Live multi-tenant registry attached to a
/// [`Telemetry`](crate::Telemetry) handle, `None` until a daemon
/// begins. The `fleetd` scheduler writes to it (admission decisions,
/// delivery counters, requeues); the tree's tenants section and
/// `presto tenants` read it. Updates are per-batch at the most — a
/// mutex is fine, nothing per-sample touches this.
#[derive(Debug, Default)]
pub struct TenantsProgress {
    state: Mutex<Option<TenantsState>>,
}

impl TenantsProgress {
    /// Start (or restart) a daemon session with its admission policy.
    pub fn begin(&self, max_jobs: u64, shard_quota: u64) {
        *self.state.lock() = Some(TenantsState {
            max_jobs,
            shard_quota,
            ..TenantsState::default()
        });
    }

    /// Apply `f` to the registry, if a daemon session has begun.
    fn update(&self, f: impl FnOnce(&mut TenantsState)) {
        if let Some(state) = self.state.lock().as_mut() {
            f(state);
        }
    }

    /// Apply `f` to `name`'s slot, if it is registered.
    fn update_slot(&self, name: &str, f: impl FnOnce(&mut TenantSlot)) {
        self.update(|state| {
            if let Some(slot) = state.slot_mut(name) {
                f(slot);
            }
        });
    }

    /// A registration passed admission. Re-registering a finished
    /// tenant re-enters it as serving (a second epoch); counters are
    /// cumulative across its epochs.
    pub fn admitted(&self, name: &str, weight: u32, shards: u64) {
        self.update(|state| {
            match state.slot_mut(name) {
                Some(slot) => {
                    slot.entry.weight = weight.max(1);
                    slot.entry.shards_total += shards;
                    slot.entry.state = TenantState::Serving;
                }
                None => {
                    state.tenants.push(TenantSlot {
                        entry: TenantEntry::new(name, weight, shards),
                        window_base: None,
                        admitted_mono_ns: mono_ns(),
                        finished_mono_ns: 0,
                    });
                }
            }
            if state.serving() >= 2 {
                state.rebaseline();
            }
        });
    }

    /// A registration was refused.
    pub fn rejected(&self) {
        self.update(|state| state.rejected += 1);
    }

    /// Samples/batches/bytes relayed to a tenant's client.
    pub fn delivered(&self, name: &str, samples: u64, batches: u64, bytes: u64) {
        self.update_slot(name, |slot| {
            slot.entry.samples += samples;
            slot.entry.batches += batches;
            slot.entry.bytes += bytes;
        });
    }

    /// One of the tenant's shards reached EOF at its client.
    pub fn shard_done(&self, name: &str) {
        self.update_slot(name, |slot| slot.entry.shards_done += 1);
    }

    /// A backend died mid-shard; the shard went back on this tenant's
    /// queue, consuming this tenant's fault budget only.
    pub fn requeued(&self, name: &str, shards: u64) {
        self.update_slot(name, |slot| slot.entry.requeues += shards);
    }

    fn leave(&self, name: &str, state_after: TenantState) {
        self.update(|state| {
            state.freeze();
            if let Some(slot) = state.slot_mut(name) {
                slot.entry.state = state_after;
                slot.finished_mono_ns = mono_ns();
            }
        });
    }

    /// The tenant's epoch completed. Freezes the fair-share window if
    /// it was still measuring.
    pub fn finished(&self, name: &str) {
        self.leave(name, TenantState::Done);
    }

    /// The tenant failed (budget exhausted / client gone). Also
    /// freezes the window — a failed competitor stops competing.
    pub fn failed(&self, name: &str) {
        self.leave(name, TenantState::Failed);
    }

    /// Point-in-time copy (empty before [`TenantsProgress::begin`]).
    /// Window samples of open-window participants are reported live
    /// (current minus baseline).
    pub fn snapshot(&self) -> TenantsSnapshot {
        self.section().unwrap_or_default()
    }

    /// The tree's tenants section: `None` until a daemon has begun.
    pub(crate) fn section(&self) -> Option<TenantsSnapshot> {
        let state = self.state.lock();
        let state = state.as_ref()?;
        let now = mono_ns();
        Some(TenantsSnapshot {
            max_jobs: state.max_jobs,
            shard_quota: state.shard_quota,
            rejected: state.rejected,
            window_open: state.window_open,
            window_closed: state.window_closed,
            tenants: state
                .tenants
                .iter()
                .map(|slot| {
                    let mut entry = slot.entry.clone();
                    if !state.window_closed {
                        if let Some(base) = slot.window_base {
                            entry.in_window = true;
                            entry.window_samples = entry.samples.saturating_sub(base);
                        }
                    }
                    entry.elapsed_ns = if slot.finished_mono_ns > 0 {
                        slot.finished_mono_ns
                    } else {
                        now
                    }
                    .saturating_sub(slot.admitted_mono_ns);
                    entry
                })
                .collect(),
        })
    }
}

impl Scalar for TenantState {
    const KIND: &'static str = "one of \"serving\", \"done\", \"failed\"";
    fn write(&self, out: &mut String) {
        let _ = write!(out, "\"{}\"", self.label());
    }
    fn read(value: &JsonValue) -> Option<Self> {
        let label = value.as_str()?;
        [TenantState::Serving, TenantState::Done, TenantState::Failed]
            .into_iter()
            .find(|state| state.label() == label)
    }
}

/// One tenant on the wire: its entry plus both share readings, which
/// are derived from the whole registry and so computed by
/// [`TenantsSnapshot`]'s field list before the entries are visited.
#[derive(Default)]
struct TenantRow {
    entry: TenantEntry,
    fair_share: f64,
    measured_share: f64,
}

impl Record for TenantRow {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        let t = &mut self.entry;
        v.req("name", &mut t.name);
        v.req("weight", &mut t.weight);
        v.req("state", &mut t.state);
        v.req("shards_total", &mut t.shards_total);
        v.req("shards_done", &mut t.shards_done);
        v.req("requeues", &mut t.requeues);
        v.req("samples", &mut t.samples);
        v.req("batches", &mut t.batches);
        v.req("bytes", &mut t.bytes);
        v.req("elapsed_ns", &mut t.elapsed_ns);
        v.req("in_window", &mut t.in_window);
        v.req("window_samples", &mut t.window_samples);
        v.derived("fair_share", self.fair_share, 6);
        v.derived("measured_share", self.measured_share, 6);
    }
}

/// The stable `presto.tenants.v1` document served at `/tenants.json`:
/// admission policy, fair-share window state, and one entry per tenant
/// with its delivery counters and both share readings.
impl Record for TenantsSnapshot {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("max_jobs", &mut self.max_jobs);
        v.req("shard_quota", &mut self.shard_quota);
        v.req("rejected", &mut self.rejected);
        v.object("window", false, |v| {
            v.req("open", &mut self.window_open);
            v.req("closed", &mut self.window_closed);
        });
        let mut rows: Vec<TenantRow> = self
            .tenants
            .iter()
            .map(|t| TenantRow {
                entry: t.clone(),
                fair_share: self.fair_share(&t.name).unwrap_or(0.0),
                measured_share: self.measured_share(&t.name).unwrap_or(0.0),
            })
            .collect();
        v.records("tenants", &mut rows);
        self.tenants = rows.into_iter().map(|row| row.entry).collect();
    }
}

impl Document for TenantsSnapshot {
    const SCHEMA: &'static str = TENANTS_SCHEMA;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;
    use crate::export::{parse_prometheus, series_value};

    fn three_tenant_registry() -> TenantsProgress {
        let progress = TenantsProgress::default();
        progress.begin(4, 64);
        progress.admitted("a", 1, 8);
        progress.delivered("a", 100, 10, 1_000); // alone: pre-window
        progress.admitted("b", 2, 8);
        progress.delivered("a", 10, 1, 100);
        progress.delivered("b", 20, 2, 200); // 2-way window, rebaselined at c
        progress.admitted("c", 4, 8);
        progress.delivered("a", 10, 1, 100);
        progress.delivered("b", 20, 2, 200);
        progress.delivered("c", 40, 4, 400);
        progress
    }

    #[test]
    fn window_covers_exactly_the_all_active_interval() {
        let progress = three_tenant_registry();
        progress.finished("c"); // freezes the window
        progress.delivered("a", 500, 50, 5_000); // post-window: uncounted
        progress.finished("a");
        progress.finished("b");
        let snapshot = progress.snapshot();
        assert!(snapshot.window_closed);
        let get = |name: &str| {
            snapshot
                .tenants
                .iter()
                .find(|t| t.name == name)
                .cloned()
                .unwrap()
        };
        // Only the deliveries after c's admission count: a=10, b=20, c=40.
        assert_eq!(get("a").window_samples, 10);
        assert_eq!(get("b").window_samples, 20);
        assert_eq!(get("c").window_samples, 40);
        // Shares line up with 1/2/4 weights exactly in this script.
        assert_eq!(snapshot.fair_share("a"), Some(1.0 / 7.0));
        assert_eq!(snapshot.measured_share("a"), Some(10.0 / 70.0));
        assert_eq!(snapshot.fair_share("c"), Some(4.0 / 7.0));
        assert_eq!(snapshot.measured_share("c"), Some(40.0 / 70.0));
        // Lifetime counters still include everything.
        assert_eq!(get("a").samples, 620);
        assert_eq!(get("a").state, TenantState::Done);
    }

    #[test]
    fn tenants_json_round_trips_and_validates() {
        let progress = three_tenant_registry();
        progress.finished("c");
        progress.failed("b");
        let snapshot = progress.snapshot();
        let doc = doc::write(snapshot.clone());
        let parsed: TenantsSnapshot = doc::read(&doc).expect("parses");
        assert_eq!(parsed.max_jobs, 4);
        assert_eq!(parsed.shard_quota, 64);
        assert!(parsed.window_closed);
        // Everything reads back.
        assert_eq!(parsed, snapshot);
        // Wrong schema string is refused.
        let bad = doc.replace(TENANTS_SCHEMA, "presto.fleet.v1");
        assert!(doc::read::<TenantsSnapshot>(&bad).is_err());
    }

    #[test]
    fn labeled_serve_counters_carry_a_back_compat_sum() {
        let progress = three_tenant_registry();
        let tree = crate::Snapshot {
            tenants: Some(progress.snapshot()),
            ..crate::Snapshot::default()
        };
        let text = crate::export::prometheus(&tree);
        let series = parse_prometheus(&text).expect("parses");
        // Labeled per-tenant series exist…
        let a = series_value(&series, "presto_serve_batches_total{tenant=\"a\"}").unwrap();
        let b = series_value(&series, "presto_serve_batches_total{tenant=\"b\"}").unwrap();
        let c = series_value(&series, "presto_serve_batches_total{tenant=\"c\"}").unwrap();
        assert_eq!((a, b, c), (12.0, 4.0, 4.0));
        // …and the unlabeled name still resolves, carrying the sum.
        let sum = series_value(&series, "presto_serve_batches_total").unwrap();
        assert_eq!(sum, a + b + c);
        assert_eq!(
            series_value(&series, "presto_serve_bytes_total{tenant=\"c\"}").unwrap(),
            400.0
        );
        assert_eq!(
            series_value(&series, "presto_tenant_weight{tenant=\"c\"}").unwrap(),
            4.0
        );
    }

    #[test]
    fn rejections_count_without_touching_admitted_tenants() {
        let progress = TenantsProgress::default();
        progress.begin(1, 8);
        progress.admitted("only", 1, 4);
        progress.rejected();
        progress.rejected();
        let snapshot = progress.snapshot();
        assert_eq!(snapshot.rejected, 2);
        assert_eq!(snapshot.tenants.len(), 1);
        assert!(!snapshot.window_open); // one tenant never competes
        assert_eq!(snapshot.fair_share("only"), None);
    }
}
