//! Preemption policy engine: a discrete-event simulator of a
//! preprocessing-worker fleet running on preemptible (spot) capacity.
//!
//! The market model is an Ornstein–Uhlenbeck spot-price process —
//! mean-reverting with Gaussian shocks, the standard first-order model
//! for spot markets — discretized per simulation step:
//!
//! ```text
//! p' = p + theta * (mu - p) * dt + sigma * sqrt(dt) * N(0,1)
//! ```
//!
//! Each step, every spot worker is preempted with a probability that
//! rises with how far price sits above its long-run mean (capacity is
//! reclaimed when the market is hot). A preempted worker takes a
//! rejoin delay to come back — unless the policy replaces it with
//! on-demand capacity, which never gets preempted but costs more.
//!
//! Three [`FleetPolicy`] variants are evaluated:
//!
//! - **GreedySpot** — always restart preempted workers on spot; the
//!   cheapest fleet and the one that loses the epoch when the client's
//!   reconnect budget runs out mid-storm.
//! - **OnDemandFallback** — after a worker accumulates
//!   `fallback_after` preemptions, restart it on on-demand; bounded
//!   kills per worker, so a client with a matching reconnect budget
//!   always finishes.
//! - **OnDemandOnly** — never use spot; zero preemptions, maximum
//!   cost. The control arm.
//!
//! Everything is driven by one seed through the same SplitMix64 mixer
//! the fault store and chaos proxy use, so a simulated storm is
//! replayable — and [`FleetOutcome::kill_log`] can be handed to the
//! live `train-client --preempt-storm` drill, which kills and rejoins
//! real serve workers on the simulated schedule and checks the
//! simulator's survival verdict against the measured outcome.

use presto_pipeline::telemetry::doc::{Record, Visitor};
use std::collections::BinaryHeap;

/// SplitMix64 finalizer — the workspace-wide deterministic mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Deterministic stream of uniforms / Gaussians for one simulation.
#[derive(Debug, Clone)]
struct SimRng {
    state: u64,
}

impl SimRng {
    fn new(seed: u64) -> Self {
        SimRng { state: mix(seed) }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        mix(self.state)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller (one draw per call; the pair's
    /// second half is discarded to keep the stream position simple).
    fn gaussian(&mut self) -> f64 {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Ornstein–Uhlenbeck spot-price parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpotMarket {
    /// Long-run mean price, $/hour.
    pub mu: f64,
    /// Mean-reversion rate, 1/hour — how fast shocks decay.
    pub theta: f64,
    /// Volatility, $/hour per sqrt(hour).
    pub sigma: f64,
    /// Baseline per-step preemption probability at price == mu.
    pub base_preemption: f64,
    /// Extra preemption probability per dollar above mu.
    pub preemption_per_dollar: f64,
}

impl SpotMarket {
    /// A moderately volatile market calibrated so multi-worker storms
    /// are common at hour scale: price swings of ±50% around the mean
    /// and per-step preemption odds in the single-digit percents.
    pub fn volatile() -> Self {
        SpotMarket {
            mu: 0.12,
            theta: 2.0,
            sigma: 0.10,
            base_preemption: 0.02,
            preemption_per_dollar: 0.8,
        }
    }

    /// A hot market for storm drills: slow mean reversion keeps price
    /// spikes alive for many steps, and preemption odds climb steeply
    /// with the excess, so multi-kill cascades that exhaust a client's
    /// whole reconnect budget show up within a few dozen seeds.
    pub fn storm() -> Self {
        SpotMarket {
            mu: 0.12,
            theta: 1.0,
            sigma: 0.18,
            base_preemption: 0.10,
            preemption_per_dollar: 3.0,
        }
    }

    /// Per-step preemption probability at `price`; `base_preemption`
    /// is expressed per [`HOURS_PER_STEP`] and rescaled to `dt_hours`.
    fn preemption_probability(&self, price: f64, dt_hours: f64) -> f64 {
        let excess = (price - self.mu).max(0.0);
        let per_nominal_step = self.base_preemption + excess * self.preemption_per_dollar;
        (per_nominal_step * dt_hours / HOURS_PER_STEP).clamp(0.0, 0.95)
    }
}

/// Nominal step width used to express `base_preemption` (probability
/// per this many hours).
const HOURS_PER_STEP: f64 = 0.05;

/// How the fleet replaces preempted workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetPolicy {
    /// Always restart on spot capacity.
    GreedySpot,
    /// Restart on spot until a worker has been preempted
    /// `fallback_after` times, then pin it to on-demand.
    OnDemandFallback {
        /// Preemptions tolerated per worker before promoting it.
        fallback_after: u32,
    },
    /// Only on-demand capacity; never preempted.
    OnDemandOnly,
}

impl FleetPolicy {
    /// Short stable name used by the CLI and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FleetPolicy::GreedySpot => "greedy-spot",
            FleetPolicy::OnDemandFallback { .. } => "on-demand-fallback",
            FleetPolicy::OnDemandOnly => "on-demand-only",
        }
    }
}

/// Fleet-simulation inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Workers serving the epoch.
    pub workers: u32,
    /// Wall-clock the epoch needs with every worker up, hours.
    pub epoch_hours: f64,
    /// Simulation step, hours.
    pub dt_hours: f64,
    /// Delay before a preempted spot worker is serving again, hours.
    pub rejoin_hours: f64,
    /// On-demand price, $/hour (spot price comes from the market).
    pub on_demand_per_hour: f64,
    /// The client tolerates this many connection failures per worker
    /// before dropping it for the epoch (mirrors the serve client's
    /// reconnect budget).
    pub reconnect_budget: u32,
    /// Spot-market dynamics.
    pub market: SpotMarket,
}

impl FleetConfig {
    /// A 4-worker, one-hour epoch on the volatile market — the shape
    /// the chaos drills use.
    pub fn drill(workers: u32) -> Self {
        FleetConfig {
            workers,
            epoch_hours: 1.0,
            dt_hours: HOURS_PER_STEP,
            rejoin_hours: 0.1,
            on_demand_per_hour: 0.40,
            reconnect_budget: 3,
            market: SpotMarket::volatile(),
        }
    }

    /// The drill shape on the [`SpotMarket::storm`] market — what the
    /// `train-client --preempt-storm` live drill and the chaos suite
    /// use, so that budget-exhausting cascades are reachable by seed.
    pub fn storm(workers: u32) -> Self {
        FleetConfig {
            market: SpotMarket::storm(),
            ..FleetConfig::drill(workers)
        }
    }
}

/// One preemption in the simulated storm, in epoch-relative time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KillEvent {
    /// Simulated time of the kill, hours from epoch start.
    pub at_hours: f64,
    /// Index of the killed worker (0-based).
    pub worker: u32,
    /// Which preemption this is for the worker (1-based).
    pub count: u32,
    /// Whether the policy restarts this worker on spot (it can be
    /// preempted again) or promotes it to on-demand (immune).
    pub restart_on_spot: bool,
    /// True when the worker never comes back: the kill exhausted the
    /// client's reconnect budget, so the client writes it off. A live
    /// storm replay must not respawn the worker after this event.
    pub permanent: bool,
}

/// How the simulated epoch ended. The semantics mirror the serve
/// client's failover exactly: a written-off worker's shards move to
/// survivors, so the epoch is only lost when *no* worker survives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetVerdict {
    /// At least one worker survived the storm; failover delivers the
    /// full multiset and the epoch completes.
    Completed,
    /// Every worker exhausted the client's reconnect budget; pending
    /// shards have nowhere to go, so the epoch only finishes under a
    /// degrade policy, with lost shards.
    Degraded,
}

/// Result of simulating one policy on one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// Policy simulated.
    pub policy: FleetPolicy,
    /// Survival verdict for a client with the configured budget.
    pub verdict: FleetVerdict,
    /// Total preemptions across the fleet.
    pub preemptions: u32,
    /// Most preemptions suffered by any single worker.
    pub worst_worker_preemptions: u32,
    /// Workers that ended the epoch promoted to on-demand.
    pub on_demand_workers: u32,
    /// Workers written off for good: their kills reached the client's
    /// reconnect budget while they were still on spot, so the client
    /// dropped them and their capacity never came back.
    pub lost_workers: u32,
    /// Fleet cost of the epoch, dollars.
    pub cost_usd: f64,
    /// Simulated wall-clock including rejoin stalls, hours.
    pub elapsed_hours: f64,
    /// Every kill, in time order — the storm schedule a live drill
    /// replays against real workers.
    pub kill_log: Vec<KillEvent>,
    /// Price trace sampled per step (for reports and plots).
    pub price_trace: Vec<f64>,
}

/// Future events in the discrete-event loop.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    at: f64,
    worker: u32,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap on time via reversed comparison.
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerState {
    Spot,
    OnDemand,
    /// Preempted, waiting out the rejoin delay.
    Down,
    /// Written off: kills reached the client's reconnect budget, the
    /// client dropped the worker, and spot capacity never returned.
    Gone,
}

/// Simulate one policy under one seed.
///
/// The loop advances in `dt_hours` steps: the OU price updates, each
/// live spot worker draws a preemption coin keyed on
/// `(seed, step, worker)`, and rejoin completions fire from an event
/// heap. Progress accrues at `live_workers / workers` of real time, so
/// preemption storms stretch the epoch the same way they stretch a
/// real credit-starved serve epoch.
pub fn simulate(config: &FleetConfig, policy: FleetPolicy, seed: u64) -> FleetOutcome {
    let mut rng = SimRng::new(seed ^ 0xF1EE7);
    let workers = config.workers.max(1);
    let mut state: Vec<WorkerState> = match policy {
        FleetPolicy::OnDemandOnly => vec![WorkerState::OnDemand; workers as usize],
        _ => vec![WorkerState::Spot; workers as usize],
    };
    let mut preempted = vec![0u32; workers as usize];
    let mut price = config.market.mu;
    let mut price_trace = Vec::new();
    let mut kill_log = Vec::new();
    let mut rejoins: BinaryHeap<Pending> = BinaryHeap::new();
    let mut progress = 0.0f64; // worker-hours of serving delivered
    let needed = config.epoch_hours * f64::from(workers);
    let mut now = 0.0f64;
    let mut cost = 0.0f64;
    let dt = config.dt_hours.max(1e-4);
    // Hard stop: a fleet that can't make progress ends the run rather
    // than spinning forever (verdict is Degraded by then anyway).
    let horizon = config.epoch_hours * 50.0;

    while progress < needed && now < horizon {
        // 1. Rejoins due by `now` come back up.
        while rejoins.peek().is_some_and(|p| p.at <= now) {
            let back = rejoins.pop().unwrap();
            let idx = back.worker as usize;
            if state[idx] == WorkerState::Down {
                let promote = match policy {
                    FleetPolicy::GreedySpot => false,
                    FleetPolicy::OnDemandOnly => true,
                    FleetPolicy::OnDemandFallback { fallback_after } => {
                        preempted[idx] >= fallback_after
                    }
                };
                state[idx] = if promote {
                    WorkerState::OnDemand
                } else {
                    WorkerState::Spot
                };
            }
        }

        // 2. OU price step.
        price += config.market.theta * (config.market.mu - price) * dt
            + config.market.sigma * dt.sqrt() * rng.gaussian();
        price = price.max(0.01 * config.market.mu);
        price_trace.push(price);

        // 3. Preemption coins for live spot workers.
        let p_kill = config.market.preemption_probability(price, dt);
        for w in 0..workers {
            if state[w as usize] != WorkerState::Spot {
                continue;
            }
            // Coin keyed on (seed, step, worker): replayable, and
            // independent across workers within a step.
            let coin = mix(seed ^ mix(price_trace.len() as u64) ^ mix(0x5EED ^ u64::from(w)));
            if (coin >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p_kill {
                let idx = w as usize;
                preempted[idx] += 1;
                let promote_next = match policy {
                    FleetPolicy::GreedySpot => false,
                    FleetPolicy::OnDemandOnly => true,
                    FleetPolicy::OnDemandFallback { fallback_after } => {
                        preempted[idx] >= fallback_after
                    }
                };
                // A worker still bound for spot whose kill count hits
                // the client's budget is written off: the client stops
                // retrying it, so its capacity never comes back.
                let permanent = !promote_next
                    && config.reconnect_budget > 0
                    && preempted[idx] >= config.reconnect_budget;
                kill_log.push(KillEvent {
                    at_hours: now,
                    worker: w,
                    count: preempted[idx],
                    restart_on_spot: !promote_next,
                    permanent,
                });
                if permanent {
                    state[idx] = WorkerState::Gone;
                } else {
                    state[idx] = WorkerState::Down;
                    rejoins.push(Pending {
                        at: now + config.rejoin_hours,
                        worker: w,
                    });
                }
            }
        }

        // A fully written-off fleet can never make progress again:
        // stop here, the verdict below reads Degraded from it.
        if state.iter().all(|s| *s == WorkerState::Gone) {
            now += dt;
            break;
        }

        // 4. Serving progress and cost for this step.
        let mut live = 0u32;
        for (w, s) in state.iter().enumerate() {
            match s {
                WorkerState::Spot => {
                    live += 1;
                    cost += price * dt;
                    let _ = w;
                }
                WorkerState::OnDemand => {
                    live += 1;
                    cost += config.on_demand_per_hour * dt;
                }
                WorkerState::Down | WorkerState::Gone => {}
            }
        }
        progress += f64::from(live) * dt;
        now += dt;
    }

    let worst = preempted.iter().copied().max().unwrap_or(0);
    // Mirrors the serve client's failover: written-off workers hand
    // their shards to survivors, so as long as anyone survives the
    // epoch finishes with the full multiset. Only a fleet that never
    // delivers the needed worker-hours (everyone written off, or a
    // stalled run hitting the horizon) degrades.
    let verdict = if progress >= needed {
        FleetVerdict::Completed
    } else {
        FleetVerdict::Degraded
    };
    FleetOutcome {
        policy,
        verdict,
        preemptions: preempted.iter().sum(),
        worst_worker_preemptions: worst,
        on_demand_workers: state
            .iter()
            .filter(|s| **s == WorkerState::OnDemand)
            .count() as u32,
        lost_workers: state.iter().filter(|s| **s == WorkerState::Gone).count() as u32,
        cost_usd: cost,
        elapsed_hours: now,
        kill_log,
        price_trace,
    }
}

/// Simulate all three policies on the same seed and rank them:
/// completing verdicts first, then cheaper fleets first.
pub fn rank_policies(config: &FleetConfig, seed: u64) -> Vec<FleetOutcome> {
    let budget = config.reconnect_budget.max(2);
    let mut outcomes = vec![
        simulate(config, FleetPolicy::GreedySpot, seed),
        simulate(
            config,
            FleetPolicy::OnDemandFallback {
                fallback_after: budget - 1,
            },
            seed,
        ),
        simulate(config, FleetPolicy::OnDemandOnly, seed),
    ];
    outcomes.sort_by(|a, b| {
        let class = |o: &FleetOutcome| match o.verdict {
            FleetVerdict::Completed => 0,
            FleetVerdict::Degraded => 1,
        };
        class(a).cmp(&class(b)).then(
            a.cost_usd
                .partial_cmp(&b.cost_usd)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    outcomes
}

/// One training job's slice of a shared preprocessing fleet under the
/// weighted processor-sharing model ([`tenant_shares`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TenantShare {
    /// Job name (`job-1`..`job-N`).
    pub name: String,
    /// Deficit-round-robin weight.
    pub weight: u32,
    /// `weight / Σ weights` while every job competes.
    pub fair_share: f64,
    /// Hours until this job's epoch completes.
    pub finish_hours: f64,
    /// Capacity fraction the job averaged over its own lifetime —
    /// rises above `fair_share` as lighter competitors drain away.
    pub mean_share: f64,
}

/// A job's share as `presto.fleetsim.v1` carries it.
impl Record for TenantShare {
    fn fields<V: Visitor>(&mut self, v: &mut V) {
        v.req("name", &mut self.name);
        v.req("weight", &mut self.weight);
        v.fixed("fair_share", &mut self.fair_share, 6);
        v.fixed("mean_share", &mut self.mean_share, 6);
        v.fixed("finish_hours", &mut self.finish_hours, 4);
    }
}

/// Layer `tenants` equal-size training jobs with weights `1..=N` onto
/// a simulated fleet outcome and split its delivered capacity by
/// weighted processor sharing — the closed-form twin of the live
/// daemon's deficit round robin. While a set `A` of jobs is active,
/// job *i* is served at `C · wᵢ / Σ_{j∈A} wⱼ` where `C` is the
/// outcome's average effective capacity (worker-hours per hour,
/// preemption stalls already paid). Heavier jobs finish first; each
/// finish redistributes its share over the survivors. Deterministic —
/// no RNG beyond what shaped the outcome itself.
pub fn tenant_shares(
    config: &FleetConfig,
    outcome: &FleetOutcome,
    tenants: u32,
) -> Vec<TenantShare> {
    let tenants = tenants.max(1);
    let needed = config.epoch_hours * f64::from(config.workers.max(1));
    let capacity = needed / outcome.elapsed_hours.max(1e-9);
    let total_weight: f64 = (1..=tenants).map(f64::from).sum();
    // Each job is one epoch-equivalent of work, so the combined demand
    // matches what the simulated fleet actually delivered.
    let job_work = needed / f64::from(tenants);
    let mut remaining: Vec<f64> = vec![job_work; tenants as usize];
    let mut finish = vec![0.0f64; tenants as usize];
    let mut now = 0.0f64;
    loop {
        let active: Vec<usize> = (0..tenants as usize)
            .filter(|&i| remaining[i] > 1e-12)
            .collect();
        if active.is_empty() {
            break;
        }
        let weight_sum: f64 = active.iter().map(|&i| f64::from(i as u32 + 1)).sum();
        // Next finisher: smallest remaining work per unit weight.
        let dt = active
            .iter()
            .map(|&i| remaining[i] * weight_sum / (capacity * f64::from(i as u32 + 1)))
            .fold(f64::INFINITY, f64::min);
        for &i in &active {
            let rate = capacity * f64::from(i as u32 + 1) / weight_sum;
            remaining[i] = (remaining[i] - rate * dt).max(0.0);
            if remaining[i] <= 1e-12 && finish[i] == 0.0 {
                finish[i] = now + dt;
            }
        }
        now += dt;
    }
    (0..tenants as usize)
        .map(|i| {
            let weight = i as u32 + 1;
            TenantShare {
                name: format!("job-{weight}"),
                weight,
                fair_share: f64::from(weight) / total_weight,
                finish_hours: finish[i],
                mean_share: job_work / (capacity * finish[i].max(1e-9)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_reproduces_everything() {
        let config = FleetConfig::drill(4);
        let a = simulate(&config, FleetPolicy::GreedySpot, 42);
        let b = simulate(&config, FleetPolicy::GreedySpot, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_change_the_storm() {
        let config = FleetConfig::drill(4);
        let a = simulate(&config, FleetPolicy::GreedySpot, 1);
        let b = simulate(&config, FleetPolicy::GreedySpot, 2);
        assert_ne!(a.price_trace, b.price_trace);
    }

    #[test]
    fn on_demand_only_never_preempts() {
        let config = FleetConfig::drill(4);
        for seed in 1..=10 {
            let out = simulate(&config, FleetPolicy::OnDemandOnly, seed);
            assert_eq!(out.preemptions, 0);
            assert_eq!(out.verdict, FleetVerdict::Completed);
            assert!(out.kill_log.is_empty());
            // Full price: workers * hours * on-demand rate.
            let nominal = 4.0 * config.epoch_hours * config.on_demand_per_hour;
            assert!((out.cost_usd - nominal).abs() < 0.05 * nominal);
        }
    }

    #[test]
    fn greedy_spot_is_cheapest_on_calm_seeds() {
        let config = FleetConfig::drill(4);
        for seed in 1..=10 {
            let greedy = simulate(&config, FleetPolicy::GreedySpot, seed);
            let od = simulate(&config, FleetPolicy::OnDemandOnly, seed);
            assert!(
                greedy.cost_usd < od.cost_usd,
                "seed {seed}: spot {} >= on-demand {}",
                greedy.cost_usd,
                od.cost_usd
            );
        }
    }

    #[test]
    fn fallback_caps_per_worker_kills() {
        let config = FleetConfig::drill(4);
        for seed in 1..=20 {
            let out = simulate(
                &config,
                FleetPolicy::OnDemandFallback { fallback_after: 2 },
                seed,
            );
            assert!(
                out.worst_worker_preemptions <= 2,
                "seed {seed}: worker preempted {} times after promotion cap 2",
                out.worst_worker_preemptions
            );
            assert_eq!(out.verdict, FleetVerdict::Completed);
        }
    }

    #[test]
    fn storms_exist_and_kill_logs_match_counts() {
        let config = FleetConfig::drill(4);
        let mut any_storm = false;
        for seed in 1..=20 {
            let out = simulate(&config, FleetPolicy::GreedySpot, seed);
            assert_eq!(out.kill_log.len() as u32, out.preemptions);
            for pair in out.kill_log.windows(2) {
                assert!(pair[0].at_hours <= pair[1].at_hours, "kill log ordered");
            }
            if out.preemptions >= 3 {
                any_storm = true;
            }
        }
        assert!(any_storm, "no seed in 1..=20 produced a 3-kill storm");
    }

    /// The canonical degraded-greedy drill seed: under
    /// `FleetConfig::storm(4)` every worker exhausts the budget, while
    /// on-demand-fallback on the same seed completes. Found by
    /// `greedy_write_off_can_degrade_whole_fleet`; keep in sync with
    /// the CI chaos-soak job and docs.
    #[test]
    fn greedy_write_off_can_degrade_whole_fleet() {
        let config = FleetConfig::storm(4);
        let mut degraded_seed = None;
        for seed in 1..=400 {
            let out = simulate(&config, FleetPolicy::GreedySpot, seed);
            assert_eq!(out.kill_log.len() as u32, out.preemptions);
            if out.verdict == FleetVerdict::Degraded {
                degraded_seed = Some((seed, out));
                break;
            }
        }
        let (seed, out) = degraded_seed.expect("no seed in 1..=400 degrades greedy-spot");
        // Degradation means the whole fleet was written off, each
        // worker's final kill marked permanent at the budget.
        assert_eq!(out.lost_workers, config.workers, "seed {seed}");
        assert!(out.worst_worker_preemptions >= config.reconnect_budget);
        let permanent: Vec<_> = out.kill_log.iter().filter(|k| k.permanent).collect();
        assert_eq!(permanent.len() as u32, config.workers);
        for kill in permanent {
            assert_eq!(kill.count, config.reconnect_budget);
        }
        // The same storm survives under promotion: fallback caps kills
        // below the budget, so nobody is ever written off.
        let fallback = simulate(
            &config,
            FleetPolicy::OnDemandFallback {
                fallback_after: config.reconnect_budget - 1,
            },
            seed,
        );
        assert_eq!(fallback.verdict, FleetVerdict::Completed);
        assert_eq!(fallback.lost_workers, 0);
    }

    #[test]
    fn completed_runs_keep_survivors() {
        let config = FleetConfig::drill(4);
        for seed in 1..=20 {
            let out = simulate(&config, FleetPolicy::GreedySpot, seed);
            if out.verdict == FleetVerdict::Completed {
                assert!(
                    out.lost_workers < config.workers,
                    "seed {seed}: completed with no survivors"
                );
            }
        }
    }

    #[test]
    fn ranking_prefers_survival_then_cost() {
        let config = FleetConfig::drill(4);
        for seed in 1..=10 {
            let ranked = rank_policies(&config, seed);
            assert_eq!(ranked.len(), 3);
            let classes: Vec<_> = ranked.iter().map(|o| o.verdict).collect();
            // Completed outcomes must precede Degraded ones.
            let first_degraded = classes
                .iter()
                .position(|v| *v == FleetVerdict::Degraded)
                .unwrap_or(classes.len());
            assert!(classes[..first_degraded]
                .iter()
                .all(|v| *v == FleetVerdict::Completed));
            // Within the completed class, costs ascend.
            for pair in ranked[..first_degraded].windows(2) {
                assert!(pair[0].cost_usd <= pair[1].cost_usd);
            }
        }
    }

    #[test]
    fn tenant_shares_conserve_work_and_order_by_weight() {
        let config = FleetConfig::drill(4);
        for seed in 1..=10 {
            let out = simulate(&config, FleetPolicy::OnDemandOnly, seed);
            let shares = tenant_shares(&config, &out, 3);
            assert_eq!(shares.len(), 3);
            // Weights 1..=3: fair shares sum to 1 and ascend.
            let fair: f64 = shares.iter().map(|s| s.fair_share).sum();
            assert!((fair - 1.0).abs() < 1e-9);
            // Heavier jobs finish no later than lighter ones.
            assert!(shares[2].finish_hours <= shares[1].finish_hours);
            assert!(shares[1].finish_hours <= shares[0].finish_hours);
            // Work conservation: the fleet is saturated while any job
            // runs, so the last finisher lands exactly where the
            // single-job epoch did.
            let makespan = shares.iter().map(|s| s.finish_hours).fold(0.0f64, f64::max);
            assert!((makespan - out.elapsed_hours).abs() / out.elapsed_hours < 1e-6);
            // Everyone's mean share meets or beats their fair share
            // (departures only ever free capacity up).
            for s in &shares {
                assert!(s.mean_share >= s.fair_share - 1e-9, "{s:?}");
            }
        }
    }
}
