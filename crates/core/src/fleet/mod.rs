//! A fleet of DMX servers behind a front-end load balancer.
//!
//! One [`FleetConfig`] replicates a [`SystemConfig`] across `servers`
//! identical machines and puts a load balancer in front: the open-loop
//! multi-tenant workload arrives at the LB, a dispatch policy picks a
//! server, the request crosses the inter-node fabric
//! ([`InterNodeFabric`]), runs through the server's full engine —
//! admission, EDF dispatch, chains, every robustness layer — and its
//! resolution travels back to the LB, which records end-to-end latency
//! and goodput. Every dispatch carries a tag naming its request and
//! attempt, echoed in the resolution, so the LB pairs each resolution
//! with the exact request it answers: a server resolves a tenant's
//! requests out of order, and each end-to-end sample is still its own
//! request's latency.
//!
//! The whole fleet is **one** simulation, executed on the conservative
//! partitioned engine (`dmx_sim::partition`): each server is a
//! partition wrapping a [`Stepped`] engine, the LB is one more
//! partition, and the fabric's base latency is the lookahead bounding
//! every safe window. Output is byte-identical for any shard count —
//! `run_fleet(cfg, 1)` and `run_fleet(cfg, 8)` render the same report.
//!
//! ## Load-balancing policies
//!
//! * [`LbPolicy::RoundRobin`] — rotate through servers per dispatch.
//! * [`LbPolicy::LeastLoaded`] — fewest outstanding dispatches, ties
//!   to the lowest index. "Outstanding" is the LB's own view —
//!   dispatches minus resolutions *received* — so the signal lags by
//!   the fabric round trip, exactly like a real L7 balancer's.
//! * [`LbPolicy::TenantAffinity`] — tenant `t` always lands on server
//!   `t % servers` (session stickiness: warm caches, but no load
//!   spreading within a tenant).
//!
//! ## Fleet-level fault tolerance
//!
//! Two optional, inert-by-default layers ride on top:
//!
//! * [`FleetFaultPlan`] ([`plan`]) kills, grays out, or unplugs whole
//!   servers mid-run, by folding into each server's own fault config;
//! * [`FailoverConfig`] ([`failover`]) arms the balancer with
//!   delayed-knowledge health scoring, per-request timeouts with
//!   cross-server re-dispatch, first-wins dedup of duplicate
//!   resolutions, and per-class SLO retry/hedge policies.
//!
//! Both compose with partitioned execution unchanged: a failed-over
//! fleet is still byte-identical for any `shards`.

pub mod failover;
pub mod plan;

pub use failover::{
    ClassPolicy, ClassTotals, FailoverConfig, FailoverReport, LbHealthParams, RequestClass,
};
pub use plan::{FleetFaultPlan, ServerGray, ServerKill, ServerOutage};

use crate::overload::TenantOverload;
use crate::system::{Outcome, RunResult, SimError, Stepped, SystemConfig};
use dmx_pcie::{InterNodeFabric, LinkOutage};
use dmx_sim::partition::{run_conservative, Outbox, Partition, WindowStats, XMsg};
use dmx_sim::{ArrivalProcess, Time};
use failover::Balancer;
use std::fmt;

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of identical servers behind the load balancer.
    pub servers: usize,
    /// The per-server system; must carry a non-inert overload section
    /// (its admission machinery receives the dispatched requests).
    pub server: SystemConfig,
    /// Dispatch policy.
    pub policy: LbPolicy,
    /// The LB↔server network; its base latency is the conservative
    /// lookahead.
    pub fabric: InterNodeFabric,
    /// Seed of the LB-side arrival streams (tenant `i` draws from a
    /// sub-seed).
    pub seed: u64,
    /// Arrival process per tenant, cycled if shorter than the tenant
    /// count (one tenant per server app, as in the single-server
    /// open-loop mode).
    pub arrivals: Vec<ArrivalProcess>,
    /// Arrivals each tenant offers at the LB.
    pub requests_per_tenant: usize,
    /// Request body carried LB→server (serialization on the fabric).
    pub request_bytes: u64,
    /// Response body carried server→LB.
    pub response_bytes: u64,
    /// Fleet-level failover layer (health-aware dispatch, re-dispatch,
    /// SLO classes). `None` — or an inert config — runs the bare
    /// balancer: no timers, no health scoring, bit-identical to the
    /// layer-absent fleet.
    pub failover: Option<FailoverConfig>,
    /// Fleet-level fault schedule (server kills, gray-outs, network
    /// cuts). `None` — or an inert plan — changes nothing.
    pub fault_plan: Option<FleetFaultPlan>,
}

/// Front-end dispatch policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbPolicy {
    /// Rotate through servers.
    RoundRobin,
    /// Fewest outstanding dispatches (delayed feedback), ties to the
    /// lowest server index.
    LeastLoaded,
    /// Tenant `t` pins to server `t % servers`.
    TenantAffinity,
}

impl fmt::Display for LbPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbPolicy::RoundRobin => write!(f, "round-robin"),
            LbPolicy::LeastLoaded => write!(f, "least-loaded"),
            LbPolicy::TenantAffinity => write!(f, "tenant-affinity"),
        }
    }
}

/// Cross-partition traffic: requests out, resolutions back. Every
/// message carries the dispatch-attempt tag `(request << 6) | attempt`,
/// which the balancer matches exactly.
#[derive(Debug, Clone, Copy)]
enum FleetMsg {
    /// LB → server: one request of `tenant` arrives.
    Dispatch { tenant: usize, tag: u64 },
    /// Server → LB: the attempt `tag` resolved.
    Done { tag: u64, outcome: Outcome },
}

/// One server partition: a stepped engine plus its return path.
struct ServerPart<'a> {
    sim: Stepped<'a>,
    lb: usize,
    fabric: InterNodeFabric,
    response_bytes: u64,
    /// Network-cut windows of this server's LB hop; a resolution sent
    /// inside one never reaches the balancer.
    outages: Vec<LinkOutage>,
    resolutions_dropped: u64,
}

impl Partition for ServerPart<'_> {
    type Msg = FleetMsg;

    fn next_time(&self) -> Option<Time> {
        self.sim.next_time()
    }

    fn advance(&mut self, horizon: Time, inbox: Vec<XMsg<FleetMsg>>, out: &mut Outbox<FleetMsg>) {
        for m in inbox {
            let FleetMsg::Dispatch { tenant, tag } = m.payload else {
                unreachable!("servers only receive dispatches");
            };
            self.sim.inject_arrival_tagged(tenant, m.time, tag);
        }
        self.sim
            .pump_until(horizon)
            .expect("fleet server simulation failed");
        for r in self.sim.drain_resolutions() {
            if self.outages.iter().any(|o| o.covers(r.at)) {
                self.resolutions_dropped += 1;
                continue;
            }
            out.send(
                self.lb,
                r.at + self.fabric.delivery_time(self.response_bytes),
                FleetMsg::Done {
                    tag: r.tag,
                    outcome: r.outcome,
                },
            );
        }
    }
}

/// Fleet partitions are heterogeneous (servers + one LB); this enum
/// gives `run_conservative` its homogeneous slice.
enum FleetPart<'a> {
    Server(Box<ServerPart<'a>>),
    Balancer(Box<Balancer>),
}

impl Partition for FleetPart<'_> {
    type Msg = FleetMsg;

    fn next_time(&self) -> Option<Time> {
        match self {
            FleetPart::Server(s) => s.next_time(),
            FleetPart::Balancer(l) => l.next_time(),
        }
    }

    fn advance(&mut self, horizon: Time, inbox: Vec<XMsg<FleetMsg>>, out: &mut Outbox<FleetMsg>) {
        match self {
            FleetPart::Server(s) => s.advance(horizon, inbox, out),
            FleetPart::Balancer(l) => l.advance(horizon, inbox, out),
        }
    }
}

/// Results of one fleet run. Every field is a pure function of the
/// config — wall-clock measurements live outside, next to the caller's
/// stopwatch — so rendering it is byte-identical across shard counts.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Arrivals offered at the LB.
    pub offered: u64,
    /// Dispatches per server (the balance of the policy). Under the
    /// failover balancer this counts *attempts* — retries, hedges, and
    /// probes included — so the sum may exceed `offered`.
    pub dispatched: Vec<u64>,
    /// Completions within deadline.
    pub goodput: u64,
    /// Completions past deadline.
    pub late: u64,
    /// Sheds (admission, queue-full, deadline-expiry, crash kills).
    pub shed: u64,
    /// End-to-end goodput latency (LB arrival to resolution received),
    /// p50/p99/p999 in that order.
    pub e2e_p50: Time,
    /// 99th percentile end-to-end goodput latency.
    pub e2e_p99: Time,
    /// 99.9th percentile end-to-end goodput latency.
    pub e2e_p999: Time,
    /// Conservative-engine counters (windows, cross-partition messages).
    pub windows: WindowStats,
    /// Engine events processed across every partition (LB included).
    pub events: u64,
    /// Per-server run results (per-tenant overload accounting, energy,
    /// robustness reports).
    pub servers: Vec<RunResult>,
    /// Failover-layer accounting; `None` when the fleet ran without
    /// the layer (no failover config, or an inert one).
    pub failover: Option<FailoverReport>,
}

impl FleetResult {
    /// Requests resolved (goodput + late + shed).
    pub fn resolved(&self) -> u64 {
        self.goodput + self.late + self.shed
    }

    /// Every offered request resolved exactly once.
    pub fn conserved(&self) -> bool {
        self.offered == self.resolved()
    }

    /// The duplicates-aware conservation ledger. Without failover
    /// this is [`conserved`](FleetResult::conserved); under failover it
    /// additionally demands zero stranded requests and that every
    /// server resolution the LB received either won its request or was
    /// cancelled as a duplicate:
    /// `resolutions_received == (offered − lb_shed) + duplicates_cancelled`.
    pub fn conserved_with_duplicates(&self) -> bool {
        let base = self.conserved();
        match &self.failover {
            None => base,
            Some(f) => {
                base && f.stranded == 0
                    && f.resolutions_received == (self.offered - f.lb_shed) + f.duplicates_cancelled
            }
        }
    }

    /// Dispatch balance: max/min per-server dispatches (1.0 = perfect).
    /// Under [`LbPolicy::LeastLoaded`], remember that ties in the
    /// delayed outstanding counts break to the lowest server index —
    /// a trickle workload (every request resolving before the next
    /// arrival) therefore reports an infinite balance with all load on
    /// server 0, which is the documented tie-break, not a bug.
    pub fn balance(&self) -> f64 {
        let max = self.dispatched.iter().copied().max().unwrap_or(0);
        let min = self.dispatched.iter().copied().min().unwrap_or(0);
        if min == 0 {
            f64::INFINITY
        } else {
            max as f64 / min as f64
        }
    }

    /// Per-tenant accounting summed across the fleet's servers.
    ///
    /// Per-tenant placement is policy-dependent: under
    /// [`LbPolicy::LeastLoaded`] a tenant's requests may concentrate on
    /// low-indexed servers because outstanding-count ties break to the
    /// lowest index under delayed knowledge; the per-fleet sums here
    /// are the policy-independent view.
    pub fn tenant_totals(&self) -> Vec<TenantOverload> {
        let mut out: Vec<TenantOverload> = Vec::new();
        for r in &self.servers {
            let Some(ov) = &r.overload else { continue };
            for (i, t) in ov.tenants.iter().enumerate() {
                if out.len() <= i {
                    out.push(t.clone());
                } else {
                    let o = &mut out[i];
                    o.offered += t.offered;
                    o.admitted += t.admitted;
                    o.goodput += t.goodput;
                    o.late += t.late;
                    o.rejected_admission += t.rejected_admission;
                    o.rejected_queue_full += t.rejected_queue_full;
                    o.shed_deadline += t.shed_deadline;
                    o.breaker_activations += t.breaker_activations;
                }
            }
        }
        out
    }
}

/// Runs a fleet simulation on `shards` worker threads. Output is
/// byte-identical for any `shards` (the logical partition structure —
/// `servers + 1` partitions, lookahead windows, channel order — never
/// depends on it).
///
/// # Errors
///
/// `NoApps` / `NoOverload` / `InvalidConfig` from server construction;
/// fleet configs with zero servers, zero tenants, or an empty arrival
/// list are rejected as `NoApps`, and a live failover layer whose
/// health `window` or `min_samples` is zero as `InvalidConfig`.
pub fn try_run_fleet(cfg: &FleetConfig, shards: usize) -> Result<FleetResult, SimError> {
    if cfg.servers == 0 || cfg.arrivals.is_empty() || cfg.requests_per_tenant == 0 {
        return Err(SimError::NoApps);
    }
    let tenant_count = cfg.server.apps.len();
    // Inert layers are filtered here so that `Some(inert)` and `None`
    // run the exact same code path, bit for bit.
    let plan = cfg.fault_plan.as_ref().filter(|p| !p.is_inert());
    let fo = cfg.failover.as_ref().filter(|f| !f.is_inert());
    if fo.is_some_and(|f| f.health.window == 0 || f.health.min_samples == 0) {
        return Err(SimError::InvalidConfig(
            "failover health window and min_samples must be >= 1",
        ));
    }
    // Per-server fault configs: `None` for servers the plan leaves
    // untouched (they borrow the shared config verbatim). Declared
    // before `parts`, whose engines borrow into it.
    let server_cfgs: Vec<Option<SystemConfig>> = (0..cfg.servers)
        .map(|s| {
            plan.and_then(|p| p.server_faults(s, cfg.server.faults.as_ref()))
                .map(|faults| SystemConfig {
                    faults: Some(faults),
                    ..cfg.server.clone()
                })
        })
        .collect();
    let mut parts: Vec<FleetPart> = Vec::with_capacity(cfg.servers + 1);
    for (s, server_cfg) in server_cfgs.iter().enumerate() {
        parts.push(FleetPart::Server(Box::new(ServerPart {
            sim: Stepped::new(server_cfg.as_ref().unwrap_or(&cfg.server))?,
            lb: cfg.servers,
            fabric: cfg.fabric,
            response_bytes: cfg.response_bytes,
            outages: plan.map(|p| p.outages_for(s)).unwrap_or_default(),
            resolutions_dropped: 0,
        })));
    }
    let lb_outages: Vec<Vec<LinkOutage>> = (0..cfg.servers)
        .map(|s| plan.map(|p| p.outages_for(s)).unwrap_or_default())
        .collect();
    parts.push(FleetPart::Balancer(Box::new(Balancer::new(
        cfg,
        fo,
        tenant_count,
        lb_outages,
    ))));

    let windows = run_conservative(&mut parts, cfg.fabric.lookahead(), shards);

    let mut servers = Vec::with_capacity(cfg.servers);
    let mut lb = None;
    let mut events = 0;
    let mut resolutions_dropped = 0;
    for p in parts {
        match p {
            FleetPart::Server(s) => {
                events += s.sim.events_processed();
                resolutions_dropped += s.resolutions_dropped;
                servers.push(s.sim.finish());
            }
            FleetPart::Balancer(l) => lb = Some(l),
        }
    }
    let lb = lb.expect("one LB partition");
    Ok(lb.finish(windows, servers, events, resolutions_dropped))
}

/// Panicking variant of [`try_run_fleet`].
pub fn run_fleet(cfg: &FleetConfig, shards: usize) -> FleetResult {
    match try_run_fleet(cfg, shards) {
        Ok(r) => r,
        Err(e) => panic!("{e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::BenchmarkId;
    use crate::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
    use crate::placement::{Mode, Placement};

    fn small_fleet(servers: usize, policy: LbPolicy, rate: f64) -> FleetConfig {
        let apps: Vec<_> = (0..3).map(|i| BenchmarkId::FIVE[i].build()).collect();
        let server = SystemConfig {
            overload: Some(OverloadConfig {
                admission: AdmissionParams {
                    tokens_per_sec: f64::INFINITY,
                    burst: 1.0,
                    max_inflight: 4,
                },
                deadline: Time::from_ms(40),
                shed: ShedPolicy::Reject,
                queue_capacity: 16,
                ..OverloadConfig::none()
            }),
            ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), apps)
        };
        FleetConfig {
            servers,
            server,
            policy,
            fabric: InterNodeFabric::default(),
            seed: 0xF1EE7,
            arrivals: vec![ArrivalProcess::Poisson { rate_rps: rate }],
            requests_per_tenant: 8,
            request_bytes: 16 << 10,
            response_bytes: 4 << 10,
            failover: None,
            fault_plan: None,
        }
    }

    /// A failover policy generous enough that a healthy (even
    /// saturated) fleet never times out — the per-attempt timers only
    /// fire when a message is actually lost: one latency-sensitive
    /// class, one batch class.
    fn two_classes(hedge: bool) -> FailoverConfig {
        FailoverConfig {
            health: LbHealthParams::default(),
            classes: vec![
                ClassPolicy {
                    class: RequestClass::LatencySensitive,
                    slo: Time::from_secs_f64(120.0),
                    timeout: Time::from_secs_f64(30.0),
                    retries: 2,
                    hedge_after: hedge.then(|| Time::from_ms(10)),
                },
                ClassPolicy {
                    class: RequestClass::Batch,
                    slo: Time::from_secs_f64(240.0),
                    timeout: Time::from_secs_f64(60.0),
                    retries: 3,
                    hedge_after: None,
                },
            ],
        }
    }

    #[test]
    fn fleet_conserves_and_balances() {
        let r = run_fleet(&small_fleet(3, LbPolicy::RoundRobin, 2000.0), 1);
        assert!(
            r.conserved(),
            "offered {} resolved {}",
            r.offered,
            r.resolved()
        );
        assert_eq!(r.offered, 3 * 8);
        assert!(r.goodput > 0, "no goodput at moderate load");
        assert_eq!(r.dispatched.iter().sum::<u64>(), r.offered);
        // Round-robin over 24 arrivals and 3 servers is perfectly even.
        assert_eq!(r.dispatched, vec![8, 8, 8]);
        assert!(r.windows.windows > 0);
        assert!(
            r.windows.messages >= 2 * r.offered,
            "a dispatch and a done per request"
        );
        assert_eq!(r.servers.len(), 3);
    }

    #[test]
    fn shard_counts_are_byte_identical() {
        let cfg = small_fleet(4, LbPolicy::LeastLoaded, 4000.0);
        let serial = format!("{:?}", run_fleet(&cfg, 1));
        for shards in [2, 4, 8] {
            let sharded = format!("{:?}", run_fleet(&cfg, shards));
            assert_eq!(sharded, serial, "shards={shards}");
        }
    }

    #[test]
    fn policies_differ_and_affinity_pins() {
        let rr = run_fleet(&small_fleet(2, LbPolicy::RoundRobin, 3000.0), 1);
        let aff = run_fleet(&small_fleet(2, LbPolicy::TenantAffinity, 3000.0), 1);
        assert!(rr.conserved() && aff.conserved());
        // Three tenants on two servers: affinity puts tenants 0 and 2
        // (16 requests) on server 0, tenant 1 (8) on server 1.
        assert_eq!(aff.dispatched, vec![16, 8]);
        assert_ne!(rr.dispatched, aff.dispatched);
    }

    #[test]
    fn single_server_fleet_runs() {
        let r = run_fleet(&small_fleet(1, LbPolicy::LeastLoaded, 1000.0), 1);
        assert!(r.conserved());
        assert_eq!(r.dispatched, vec![24]);
    }

    #[test]
    fn zero_servers_rejected() {
        let mut cfg = small_fleet(1, LbPolicy::RoundRobin, 100.0);
        cfg.servers = 0;
        assert!(try_run_fleet(&cfg, 1).is_err());
    }

    #[test]
    fn least_loaded_ties_break_to_lowest_index() {
        // Pin the documented tie-break of the delayed least-loaded
        // signal directly: equal outstanding counts resolve to the
        // lowest server index, whatever the tenant.
        let cfg = small_fleet(3, LbPolicy::LeastLoaded, 10.0);
        let mut lb = Balancer::new(&cfg, None, 3, vec![Vec::new(); 3]);
        let pick = |lb: &mut Balancer, tenant| lb.pick_target(tenant, None, Time::ZERO).0;
        assert_eq!(pick(&mut lb, 0), 0, "all-zero tie goes to server 0");
        assert_eq!(pick(&mut lb, 2), 0, "tie-break ignores the tenant");
        lb.outstanding = vec![2, 1, 1];
        assert_eq!(pick(&mut lb, 0), 1, "two-way tie goes to the lower index");
        lb.outstanding = vec![2, 1, 0];
        assert_eq!(pick(&mut lb, 0), 2, "a strict minimum wins outright");
    }

    /// A scripted server: it holds every dispatch until `n` have
    /// arrived, then resolves them in reverse order, `gap` apart.
    struct Reverser {
        n: usize,
        gap: Time,
        /// `(tag, delivered at)` per held dispatch.
        held: Vec<(u64, Time)>,
        /// `(delivered at, resolution at the LB)` per resolution.
        sent: Vec<(Time, Time)>,
    }

    /// The scripted server and the balancer under test.
    enum Scripted {
        Server(Reverser),
        Lb(Box<Balancer>),
    }

    impl Partition for Scripted {
        type Msg = FleetMsg;

        fn next_time(&self) -> Option<Time> {
            match self {
                Scripted::Server(_) => None,
                Scripted::Lb(l) => l.next_time(),
            }
        }

        fn advance(
            &mut self,
            horizon: Time,
            inbox: Vec<XMsg<FleetMsg>>,
            out: &mut Outbox<FleetMsg>,
        ) {
            let r = match self {
                Scripted::Server(r) => r,
                Scripted::Lb(l) => return l.advance(horizon, inbox, out),
            };
            for m in inbox {
                let FleetMsg::Dispatch { tag, .. } = m.payload else {
                    unreachable!("servers only receive dispatches");
                };
                r.held.push((tag, m.time));
            }
            if r.held.len() == r.n {
                for (i, (tag, delivered)) in r.held.drain(..).rev().enumerate() {
                    let at = horizon + r.gap * (i as u64 + 1);
                    let outcome = Outcome::Completed {
                        within_deadline: true,
                    };
                    out.send(1, at, FleetMsg::Done { tag, outcome });
                    r.sent.push((delivered, at));
                }
            }
        }
    }

    #[test]
    fn out_of_order_resolutions_pair_by_dispatch_tag() {
        // One server, one tenant, two requests; the server resolves
        // the second before the first. Each end-to-end sample must be
        // its own request's latency, which FIFO pairing per (server,
        // tenant) would swap.
        let mut cfg = small_fleet(1, LbPolicy::RoundRobin, 1000.0);
        cfg.requests_per_tenant = 2;
        let lb = Balancer::new(&cfg, None, 1, vec![Vec::new()]);
        let server = Reverser {
            n: 2,
            gap: Time::from_ms(1),
            held: Vec::new(),
            sent: Vec::new(),
        };
        let mut parts = vec![Scripted::Server(server), Scripted::Lb(Box::new(lb))];
        let windows = run_conservative(&mut parts, cfg.fabric.lookahead(), 1);
        let (Some(Scripted::Lb(lb)), Some(Scripted::Server(server))) = (parts.pop(), parts.pop())
        else {
            unreachable!("parts are [server, lb]");
        };
        let r = lb.finish(windows, Vec::new(), 0, 0);
        assert_eq!((r.offered, r.goodput), (2, 2));

        // The LB dispatched each request one fabric hop before its
        // delivery; a resolution is stamped with its arrival at the LB.
        let hop = cfg.fabric.delivery_time(cfg.request_bytes);
        let e2e = |delivered: Time, resolved: Time| {
            Time::from_secs_f64((resolved - (delivered - hop)).as_secs_f64())
        };
        // `sent` is in resolution order: the second dispatch first.
        let [(d_second, r_first), (d_first, r_second)] = server.sent[..] else {
            panic!("two resolutions: {:?}", server.sent);
        };
        assert!(d_first < d_second);
        let mut own = [e2e(d_second, r_first), e2e(d_first, r_second)];
        let mut fifo = [e2e(d_first, r_first), e2e(d_second, r_second)];
        own.sort();
        fifo.sort();
        assert_ne!(own, fifo, "the script must tell the pairings apart");
        assert_eq!([r.e2e_p50, r.e2e_p999], own, "FIFO would give {fifo:?}");
    }

    #[test]
    fn zero_failover_health_window_or_min_samples_rejected() {
        // Three servers, so the first completion judges its server
        // against two others whose windows are still empty. With
        // `min_samples == 0` their means are 0/0 = NaN, and sorting
        // them would panic; with `window == 0` no sample is ever kept.
        for (window, min_samples) in [(16, 0), (0, 4)] {
            let mut cfg = small_fleet(3, LbPolicy::LeastLoaded, 30.0);
            let mut fo = two_classes(false);
            fo.health.window = window;
            fo.health.min_samples = min_samples;
            cfg.failover = Some(fo);
            assert!(
                matches!(try_run_fleet(&cfg, 1), Err(SimError::InvalidConfig(_))),
                "window {window}, min_samples {min_samples}"
            );
        }
    }

    #[test]
    fn inert_failover_and_plan_are_bit_identical_to_absent() {
        let absent = small_fleet(2, LbPolicy::LeastLoaded, 3000.0);
        let mut inert = absent.clone();
        inert.failover = Some(FailoverConfig::none());
        inert.fault_plan = Some(FleetFaultPlan::none());
        assert_eq!(
            format!("{:?}", run_fleet(&absent, 1)),
            format!("{:?}", run_fleet(&inert, 1)),
        );
    }

    #[test]
    fn healthy_fleet_under_failover_keeps_the_ledger() {
        // Below per-server capacity (~44 rps/tenant over 3 tenants):
        // with no faults and no saturation, no per-attempt timer fires.
        let mut cfg = small_fleet(2, LbPolicy::LeastLoaded, 30.0);
        cfg.failover = Some(two_classes(false));
        let r = run_fleet(&cfg, 1);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        // Nothing fails, so nothing retries and nothing goes dark.
        assert_eq!(f.timeouts, 0, "{f:?}");
        assert_eq!(f.retries, 0);
        assert_eq!(f.darks, 0);
        assert!(r.goodput > 0);
    }

    #[test]
    fn permanent_kill_recovers_via_shed_triggered_redispatch() {
        // Server 0 dies for good almost immediately; its crash layer
        // sheds everything it holds or later receives. Under the
        // legacy balancer those sheds are final; under failover the LB
        // re-dispatches each one onto the survivor, converting sheds
        // into (possibly late) completions. The offered load fits in
        // one server, so the survivor has the headroom to absorb it.
        let mut cfg = small_fleet(2, LbPolicy::RoundRobin, 20.0);
        cfg.requests_per_tenant = 16;
        cfg.fault_plan = Some(FleetFaultPlan {
            kills: vec![ServerKill {
                server: 0,
                at: Time::from_ms(1),
                down_for: None,
            }],
            ..FleetFaultPlan::none()
        });
        let legacy = run_fleet(&cfg, 1);
        cfg.failover = Some(two_classes(false));
        let r = run_fleet(&cfg, 1);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.retries > 0, "sheds must re-dispatch: {f:?}");
        assert!(
            legacy.shed > 0 && r.shed < legacy.shed,
            "re-dispatch must recover sheds: legacy {} vs failover {}",
            legacy.shed,
            r.shed,
        );
        assert!(
            r.goodput + r.late > legacy.goodput + legacy.late,
            "recovered requests must complete: legacy {}+{} vs failover {}+{}",
            legacy.goodput,
            legacy.late,
            r.goodput,
            r.late,
        );
    }

    #[test]
    fn network_cut_darkens_the_server_and_work_fails_over() {
        // Server 0's hop goes permanently dark: dispatches are lost,
        // the per-attempt timers fire, the health scorer marks it Dark,
        // and later arrivals route around it.
        let mut cfg = small_fleet(2, LbPolicy::LeastLoaded, 2000.0);
        cfg.requests_per_tenant = 24;
        cfg.failover = Some(two_classes(false));
        cfg.fault_plan = Some(FleetFaultPlan {
            outages: vec![ServerOutage {
                server: 0,
                at: Time::ZERO,
                down_for: None,
            }],
            ..FleetFaultPlan::none()
        });
        let r = run_fleet(&cfg, 1);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.timeouts > 0, "{f:?}");
        assert!(f.darks > 0, "{f:?}");
        assert!(f.dispatches_dropped > 0, "{f:?}");
        assert!(r.goodput > 0, "the healthy server must absorb: {r:?}");
    }

    #[test]
    fn hedging_fires_and_duplicates_cancel_first_wins() {
        // Gray out server 0 so latency-sensitive primaries on it run
        // slow (≈50x service time, no saturation — queues stay open);
        // hedges race them on the healthy server and whichever
        // resolution lands second is cancelled.
        let mut cfg = small_fleet(2, LbPolicy::RoundRobin, 30.0);
        cfg.requests_per_tenant = 16;
        cfg.failover = Some(two_classes(true));
        cfg.fault_plan = Some(FleetFaultPlan {
            grays: vec![ServerGray {
                server: 0,
                at: Time::ZERO,
                down_for: None,
                slowdown: 50.0,
            }],
            ..FleetFaultPlan::none()
        });
        let r = run_fleet(&cfg, 1);
        let f = r.failover.as_ref().expect("failover report");
        assert!(r.conserved_with_duplicates(), "{f:?}");
        assert_eq!(f.stranded, 0);
        assert!(f.hedges > 0, "{f:?}");
        assert!(f.duplicates_cancelled > 0, "{f:?}");
    }

    #[test]
    fn failover_fleet_is_byte_identical_across_shards() {
        let mut cfg = small_fleet(4, LbPolicy::LeastLoaded, 4000.0);
        cfg.requests_per_tenant = 12;
        cfg.failover = Some(two_classes(true));
        cfg.fault_plan = Some(FleetFaultPlan {
            kills: vec![ServerKill {
                server: 1,
                at: Time::from_ms(2),
                down_for: Some(Time::from_ms(10)),
            }],
            grays: vec![ServerGray {
                server: 2,
                at: Time::from_ms(1),
                down_for: Some(Time::from_ms(8)),
                slowdown: 20.0,
            }],
            outages: vec![ServerOutage {
                server: 3,
                at: Time::from_ms(1),
                down_for: Some(Time::from_ms(6)),
            }],
        });
        let serial = format!("{:?}", run_fleet(&cfg, 1));
        for shards in [2, 4, 8] {
            let sharded = format!("{:?}", run_fleet(&cfg, shards));
            assert_eq!(sharded, serial, "shards={shards}");
        }
    }
}
