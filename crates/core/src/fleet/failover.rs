//! The fleet's load balancer and its optional failover layer:
//! delayed-knowledge server health, cross-server re-dispatch, and
//! per-class SLO retry/hedge.
//!
//! The balancer pairs every resolution with its request by the
//! dispatch tag it echoes, with or without the layer. The layer is the
//! sixth robustness layer, at fleet scope. The per-server
//! layers (faults, overload, integrity, crash-stop, fail-slow) keep a
//! *server* honest; this layer keeps the *fleet* honest when a whole
//! server dies, grays out, or falls off the network:
//!
//! * `ServerHealth` mirrors `failslow::HealthScorer`, but is fed
//!   only what a real L7 balancer can see — resolution round-trip
//!   times against the fleet median, per-request timeouts, and
//!   consecutive failures. Servers move Healthy → Suspected → Dark,
//!   sit out a probation, then take one half-open *probe* (a real
//!   request) that either reinstates or re-demotes them.
//! * Every dispatch attempt carries a unique tag
//!   ([`Stepped::inject_arrival_tagged`](crate::system::Stepped::inject_arrival_tagged)),
//!   so a late resolution of a superseded attempt is recognized
//!   exactly and cancelled first-wins — never mis-paired FIFO.
//! * Attempts that time out at the LB re-dispatch to a healthy server
//!   under a bounded retry budget with exponentially backed-off
//!   per-attempt timeouts; requests past their class SLO are shed at
//!   the LB instead of burning budget.
//! * Latency-sensitive classes may *hedge*: if the first attempt is
//!   still in flight past `hedge_after`, a duplicate goes to a
//!   different server and the first resolution wins.
//!
//! ## The duplicates-aware conservation ledger
//!
//! Every offered request still resolves exactly once
//! (`offered == goodput + late + shed`), and every server resolution
//! the LB receives either *wins* — closes its request — or is a
//! cancelled duplicate:
//!
//! ```text
//! resolutions_received == (offered - lb_shed) + duplicates_cancelled
//! ```
//!
//! `lb_shed` counts requests the LB closed on a timeout with no
//! budget (or SLO headroom) left — the only closures with no winning
//! resolution. Together the two laws are the issue-level ledger
//! "offered == goodput + late + shed + duplicates_cancelled": each
//! duplicate appears once on each side. `stranded` (requests still
//! open at the end) must always be zero — every attempt carries a
//! timer, so no kill schedule can leave a request unaccounted.

use super::{FleetConfig, FleetMsg, FleetResult, LbPolicy};
use crate::system::{Outcome, RunResult};
use dmx_pcie::{InterNodeFabric, LinkOutage};
use dmx_sim::partition::{Outbox, Partition, WindowStats, XMsg};
use dmx_sim::{ArrivalGen, EventQueue, Percentiles, SplitMix64, Time};
use std::collections::VecDeque;
use std::fmt;

/// Parameters of the LB-side health scorer. All signals are
/// LB-observable: no server internals, only round-trips and silences.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LbHealthParams {
    /// Rolling round-trip window per server.
    pub window: usize,
    /// Observations before a server's mean is compared to the fleet.
    pub min_samples: usize,
    /// Demotion threshold: mean RTT above `factor` times the median
    /// of the *other* servers' means marks the server Suspected.
    pub outlier_factor: f64,
    /// Consecutive timeouts that mark a server Dark.
    pub dark_timeouts: u32,
    /// How long a Suspected/Dark server sits out before it earns one
    /// half-open probe.
    pub probation: Time,
}

impl Default for LbHealthParams {
    fn default() -> LbHealthParams {
        LbHealthParams {
            window: 16,
            min_samples: 4,
            outlier_factor: 3.0,
            dark_timeouts: 2,
            probation: Time::from_ms(5),
        }
    }
}

/// One request class: what latency it is promised and how hard the LB
/// fights for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPolicy {
    /// The class label.
    pub class: RequestClass,
    /// End-to-end SLO measured at the LB (arrival to resolution).
    /// Completions past it count `late` even if the server met its own
    /// deadline, and the LB stops re-dispatching once it has passed.
    pub slo: Time,
    /// Base per-attempt LB timeout; attempt `k` waits `timeout << k`
    /// (exponential backoff, capped at `<< 6`).
    pub timeout: Time,
    /// Re-dispatch budget after the first attempt.
    pub retries: u32,
    /// Hedge trigger: when set, a duplicate of the first attempt goes
    /// to a different server after this long in flight. Meant for
    /// [`RequestClass::LatencySensitive`].
    pub hedge_after: Option<Time>,
}

/// The service class a tenant's requests belong to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestClass {
    /// Interactive traffic: tight SLO, hedged.
    LatencySensitive,
    /// Throughput traffic: loose SLO, retried but never hedged.
    Batch,
}

impl fmt::Display for RequestClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestClass::LatencySensitive => write!(f, "latency-sensitive"),
            RequestClass::Batch => write!(f, "batch"),
        }
    }
}

/// Configuration of the failover layer. Inert by default: a fleet
/// whose `failover` is `None` *or* [`FailoverConfig::none`] runs the
/// balancer with no failover state, bit-identical to the layer-absent
/// fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FailoverConfig {
    /// Health-scorer parameters.
    pub health: LbHealthParams,
    /// Request classes; tenant `t` belongs to class `t % classes.len()`.
    /// Empty means the layer is inert.
    pub classes: Vec<ClassPolicy>,
}

impl FailoverConfig {
    /// The inert config: no classes, no timeouts, no re-dispatch.
    pub fn none() -> FailoverConfig {
        FailoverConfig {
            health: LbHealthParams::default(),
            classes: Vec::new(),
        }
    }

    /// True when this config changes nothing.
    pub fn is_inert(&self) -> bool {
        self.classes.is_empty()
    }
}

/// Per-class accounting in the [`FailoverReport`].
#[derive(Debug, Clone, Default)]
pub struct ClassTotals {
    /// Arrivals of this class offered at the LB.
    pub offered: u64,
    /// Completions inside both the server deadline and the class SLO.
    pub goodput: u64,
    /// Completions past either deadline.
    pub late: u64,
    /// Sheds (server-side or LB-side).
    pub shed: u64,
}

/// Fleet-level failover accounting; see the module docs for the
/// ledger these counters satisfy.
#[derive(Debug, Clone, Default)]
pub struct FailoverReport {
    /// Per-attempt LB timeouts that fired on a live attempt.
    pub timeouts: u64,
    /// Re-dispatches (timeout- or shed-triggered).
    pub retries: u64,
    /// Hedge duplicates launched.
    pub hedges: u64,
    /// Requests whose winning resolution came from a hedge arm.
    pub hedge_wins: u64,
    /// Server resolutions that did not decide their request: late
    /// originals of re-dispatched requests, losing hedge arms, and
    /// sheds superseded by a parallel attempt.
    pub duplicates_cancelled: u64,
    /// Requests the LB closed on a timeout with no retry budget or
    /// SLO headroom left — the only closures without a winning
    /// resolution.
    pub lb_shed: u64,
    /// Server resolutions the LB received (winners + duplicates).
    pub resolutions_received: u64,
    /// Server→LB resolutions lost to network-cut windows.
    pub resolutions_dropped: u64,
    /// LB→server dispatches lost to network-cut windows.
    pub dispatches_dropped: u64,
    /// Requests still open when the run ended. Always zero: every
    /// attempt carries a timer.
    pub stranded: u64,
    /// Healthy→Suspected demotions (latency outlier or first timeout).
    pub demotions: u64,
    /// Transitions to Dark (consecutive timeouts or a failed probe).
    pub darks: u64,
    /// Half-open probes dispatched.
    pub probes: u64,
    /// Probes that reinstated their server.
    pub recoveries: u64,
    /// Per-class totals, indexed like `FailoverConfig::classes`.
    pub classes: Vec<ClassTotals>,
}

/// LB-side health state of one server.
#[derive(Debug, Clone, Copy, PartialEq)]
enum HState {
    /// In the dispatch rotation.
    Healthy,
    /// Latency outlier or one timeout; sits out until the wrapped
    /// instant, then earns a probe.
    Suspected(Time),
    /// Repeated timeouts or a failed probe; same probation path, but
    /// recorded separately.
    Dark(Time),
    /// Exactly one half-open probe in flight.
    Probing,
}

/// Delayed-knowledge health scorer over the fleet's servers. The
/// fleet-scope mirror of `failslow::HealthScorer`: same
/// demote → probation → half-open probe → reinstate-or-re-demote
/// shape, but fed only LB-observable signals.
#[derive(Debug)]
pub(super) struct ServerHealth {
    p: LbHealthParams,
    states: Vec<HState>,
    /// Rolling RTT windows, seconds.
    rtts: Vec<VecDeque<f64>>,
    consec_timeouts: Vec<u32>,
    demotions: u64,
    darks: u64,
    probes: u64,
    recoveries: u64,
}

impl ServerHealth {
    fn new(p: LbHealthParams, servers: usize) -> ServerHealth {
        ServerHealth {
            p,
            states: vec![HState::Healthy; servers],
            rtts: vec![VecDeque::new(); servers],
            consec_timeouts: vec![0; servers],
            demotions: 0,
            darks: 0,
            probes: 0,
            recoveries: 0,
        }
    }

    fn mean(&self, s: usize) -> Option<f64> {
        let w = &self.rtts[s];
        if w.len() < self.p.min_samples {
            return None;
        }
        Some(w.iter().sum::<f64>() / w.len() as f64)
    }

    /// Median of the *other* servers' mean RTTs — the fleet baseline a
    /// server is judged against, excluding its own (possibly inflated)
    /// samples.
    fn baseline_excluding(&self, s: usize) -> Option<f64> {
        let mut means: Vec<f64> = (0..self.states.len())
            .filter(|&o| o != s)
            .filter_map(|o| self.mean(o))
            .collect();
        if means.is_empty() {
            return None;
        }
        means.sort_by(|a, b| a.partial_cmp(b).expect("RTTs are finite"));
        Some(means[means.len() / 2])
    }

    /// A resolution round-trip from `s`: refreshes the window, clears
    /// the consecutive-timeout streak, and demotes a Healthy server
    /// whose mean drifted past the fleet baseline.
    fn record(&mut self, s: usize, rtt_secs: f64, now: Time) {
        let w = &mut self.rtts[s];
        w.push_back(rtt_secs);
        while w.len() > self.p.window {
            w.pop_front();
        }
        self.consec_timeouts[s] = 0;
        if self.states[s] != HState::Healthy {
            return;
        }
        if let (Some(m), Some(b)) = (self.mean(s), self.baseline_excluding(s)) {
            if m > self.p.outlier_factor * b {
                self.states[s] = HState::Suspected(now + self.p.probation);
                self.demotions += 1;
            }
        }
    }

    /// A live attempt on `s` failed — a per-attempt timeout fired, or
    /// the server answered with a Shed (a crashed-and-shedding or
    /// overloaded server rejects instantly, which *looks* fast by RTT;
    /// the consecutive-failure streak is what routes traffic away from
    /// it). One failure suspects a healthy server; a streak of
    /// `dark_timeouts` marks it Dark.
    fn on_failure(&mut self, s: usize, now: Time) {
        self.consec_timeouts[s] += 1;
        let dark = self.consec_timeouts[s] >= self.p.dark_timeouts;
        match self.states[s] {
            HState::Healthy => {
                if dark {
                    self.states[s] = HState::Dark(now + self.p.probation);
                    self.darks += 1;
                } else {
                    self.states[s] = HState::Suspected(now + self.p.probation);
                    self.demotions += 1;
                }
            }
            HState::Suspected(_) if dark => {
                self.states[s] = HState::Dark(now + self.p.probation);
                self.darks += 1;
            }
            _ => {}
        }
    }

    fn eligible(&self, s: usize) -> bool {
        self.states[s] == HState::Healthy
    }

    /// The lowest-indexed server whose probation has expired and that
    /// therefore gets the next dispatch as its half-open probe.
    fn probe_due(&self, now: Time) -> Option<usize> {
        (0..self.states.len()).find(|&s| match self.states[s] {
            HState::Suspected(at) | HState::Dark(at) => now >= at,
            _ => false,
        })
    }

    fn begin_probe(&mut self, s: usize) {
        self.states[s] = HState::Probing;
        self.probes += 1;
    }

    /// The probe resolved: reinstate. The stale window is cleared so
    /// pre-demotion samples cannot instantly re-demote.
    fn probe_ok(&mut self, s: usize) {
        self.states[s] = HState::Healthy;
        self.rtts[s].clear();
        self.consec_timeouts[s] = 0;
        self.recoveries += 1;
    }

    /// The probe timed out: back to Dark for another probation.
    fn probe_fail(&mut self, s: usize, now: Time) {
        self.states[s] = HState::Dark(now + self.p.probation);
        self.darks += 1;
    }
}

/// Cap on the backoff exponent (`timeout << k`).
const MAX_BACKOFF_SHIFT: u32 = 6;
/// Attempt index bits in a tag; attempts per request are capped under
/// this so `request << TAG_BITS | attempt` never collides.
const TAG_BITS: u32 = 6;
const MAX_ATTEMPTS: usize = (1 << TAG_BITS) - 1;

fn tag_of(req: usize, attempt: usize) -> u64 {
    ((req as u64) << TAG_BITS) | attempt as u64
}

fn untag(tag: u64) -> (usize, usize) {
    (
        (tag >> TAG_BITS) as usize,
        (tag & ((1 << TAG_BITS) - 1)) as usize,
    )
}

/// One dispatch attempt of one request.
#[derive(Debug)]
struct Attempt {
    server: usize,
    sent_at: Time,
    /// Still counted in flight: no resolution received, timeout not
    /// fired. Leaving the live set releases the server's outstanding
    /// slot exactly once.
    live: bool,
    hedge: bool,
}

/// One request's failover lifecycle (its arrival time is in the
/// balancer's `arrived`).
#[derive(Debug)]
struct FoReq {
    tenant: usize,
    class: usize,
    attempts: Vec<Attempt>,
    retries_used: u32,
    open: bool,
}

/// The failover layer's state: present exactly when the fleet runs a
/// non-inert [`FailoverConfig`].
struct Failover {
    cfg: FailoverConfig,
    health: ServerHealth,
    /// The in-flight half-open probe per server, by attempt tag.
    probing_tag: Vec<Option<u64>>,
    /// Per-request lifecycles, indexed like the balancer's `arrived`.
    reqs: Vec<FoReq>,
    rep: FailoverReport,
}

impl Failover {
    /// Takes attempt `(ri, k)` out of the live set and returns its
    /// server, whose outstanding slot the caller releases; `None` when
    /// it already left.
    fn retire(&mut self, ri: usize, k: usize) -> Option<usize> {
        let a = &mut self.reqs[ri].attempts[k];
        if !a.live {
            return None;
        }
        a.live = false;
        Some(a.server)
    }
}

/// How a request closed.
#[derive(Debug, Clone, Copy)]
enum Verdict {
    Goodput,
    Late,
    Shed,
}

/// Load-balancer local events, time-ordered on its own queue so
/// arrivals, returning resolutions and timers interleave correctly.
#[derive(Debug)]
enum Ev {
    /// One request of tenant `t` arrives.
    Arrival(usize),
    /// A server resolution came back.
    Done {
        server: usize,
        tag: u64,
        outcome: Outcome,
    },
    /// Attempt `tag`'s per-attempt timer fired.
    Timeout(u64),
    /// Attempt `tag` (always attempt 0) crossed its hedge threshold.
    Hedge(u64),
}

/// One LB-side tenant: its arrival stream and offer budget.
#[derive(Debug)]
struct Tenant {
    gen: ArrivalGen,
    to_offer: usize,
}

/// The fleet's load-balancer partition. Every dispatch carries the tag
/// `(request << TAG_BITS) | attempt` and every resolution closes the
/// request its tag names, so end-to-end latency is exact even when a
/// server resolves a tenant's requests out of order. With a non-inert
/// [`FailoverConfig`] the balancer also scores server health, times
/// out and re-dispatches attempts, and hedges; without one it arms no
/// timer and reads no health, and a dispatch costs one policy pick.
pub(super) struct Balancer {
    q: EventQueue<Ev>,
    tenants: Vec<Tenant>,
    policy: LbPolicy,
    fabric: InterNodeFabric,
    request_bytes: u64,
    servers: usize,
    rr_next: usize,
    /// LB's view of per-server outstanding attempts (dispatched minus
    /// resolved or timed out) — the delayed least-loaded signal.
    pub(super) outstanding: Vec<usize>,
    /// Network-cut windows per server (from the fleet fault plan; all
    /// empty without one). A dispatch sent into a window is lost; only
    /// a failover timer can recover it.
    outages: Vec<Vec<LinkOutage>>,
    /// LB arrival time per offered request, indexed by the request
    /// half of its tags.
    arrived: Vec<Time>,
    fo: Option<Failover>,
    // Accounting.
    dispatched: Vec<u64>,
    goodput: u64,
    late: u64,
    shed: u64,
    e2e: Percentiles,
}

impl Balancer {
    /// `fo` is the fleet's failover config, already filtered to
    /// non-inert.
    pub(super) fn new(
        cfg: &FleetConfig,
        fo: Option<&FailoverConfig>,
        tenant_count: usize,
        outages: Vec<Vec<LinkOutage>>,
    ) -> Balancer {
        let mut root = SplitMix64::new(cfg.seed);
        let mut q = EventQueue::new();
        let mut tenants: Vec<Tenant> = (0..tenant_count)
            .map(|i| {
                let sub = root.next_u64();
                Tenant {
                    gen: ArrivalGen::new(
                        cfg.arrivals[i % cfg.arrivals.len()],
                        SplitMix64::new(sub),
                    ),
                    to_offer: cfg.requests_per_tenant,
                }
            })
            .collect();
        // Seed each tenant's first arrival, as the single-server
        // open-loop mode does.
        for (t, ts) in tenants.iter_mut().enumerate() {
            if ts.to_offer > 0 {
                let gap = ts.gen.next_gap();
                q.schedule_at(gap, Ev::Arrival(t));
            }
        }
        let fo = fo.map(|f| Failover {
            cfg: f.clone(),
            health: ServerHealth::new(f.health, cfg.servers),
            probing_tag: vec![None; cfg.servers],
            reqs: Vec::new(),
            rep: FailoverReport {
                classes: vec![ClassTotals::default(); f.classes.len()],
                ..FailoverReport::default()
            },
        });
        Balancer {
            q,
            tenants,
            policy: cfg.policy,
            fabric: cfg.fabric,
            request_bytes: cfg.request_bytes,
            servers: cfg.servers,
            rr_next: 0,
            outstanding: vec![0; cfg.servers],
            outages,
            arrived: Vec::new(),
            fo,
            dispatched: vec![0; cfg.servers],
            goodput: 0,
            late: 0,
            shed: 0,
            e2e: Percentiles::new(),
        }
    }

    /// The failover state, on paths only its timers or its Done
    /// handling reach.
    fn fo_mut(&mut self) -> &mut Failover {
        self.fo.as_mut().expect("failover layer is on")
    }

    /// Releases one outstanding slot of `server`.
    fn release(&mut self, server: usize) {
        self.outstanding[server] = self.outstanding[server].saturating_sub(1);
    }

    /// The dispatch target for one attempt: a probe-due server first
    /// (lowest index — the probe IS the dispatch), then the policy
    /// applied over the healthy servers other than `avoid` (a hedge or
    /// retry goes to a *different* server). When that leaves none, the
    /// candidates relax `avoid` first, then health: the LB must
    /// dispatch somewhere, and a wrong guess only costs a timeout.
    /// Without failover every server is healthy and `avoid` is `None`,
    /// so this is the bare policy pick.
    pub(super) fn pick_target(
        &mut self,
        tenant: usize,
        avoid: Option<usize>,
        now: Time,
    ) -> (usize, bool) {
        if let Some(fo) = &mut self.fo {
            if let Some(s) = fo.health.probe_due(now) {
                if avoid != Some(s) {
                    fo.health.begin_probe(s);
                    return (s, true);
                }
            }
        }
        let n = self.servers;
        let health = self.fo.as_ref().map(|fo| &fo.health);
        let healthy = |s: usize| health.is_none_or(|h| h.eligible(s));
        let allowed = |s: usize, need_health: bool, need_avoid: bool| {
            (!need_health || healthy(s)) && (!need_avoid || avoid != Some(s))
        };
        let (need_health, need_avoid) = [(true, true), (true, false), (false, true)]
            .into_iter()
            .find(|&(h, a)| (0..n).any(|s| allowed(s, h, a)))
            .unwrap_or((false, false));
        let cand = |s: usize| allowed(s, need_health, need_avoid);
        let outstanding = &self.outstanding;
        let least_loaded = || {
            (0..n)
                .filter(|&s| cand(s))
                .min_by_key(|&s| (outstanding[s], s))
                .expect("at least one server")
        };
        let s = match self.policy {
            LbPolicy::RoundRobin => loop {
                let s = self.rr_next;
                self.rr_next = (s + 1) % n;
                if cand(s) {
                    break s;
                }
            },
            LbPolicy::LeastLoaded => least_loaded(),
            LbPolicy::TenantAffinity => {
                let pinned = tenant % n;
                if cand(pinned) {
                    pinned
                } else {
                    // The pinned server is sick: spill to the least
                    // loaded healthy alternative.
                    least_loaded()
                }
            }
        };
        (s, false)
    }

    /// Launches request `ri`'s next attempt: pick a server and, under
    /// failover, arm the per-attempt timer (exponentially backed off by
    /// the retry count) and, on the first attempt of a hedged class,
    /// the hedge timer. Then send — unless a network-cut window eats
    /// the message, in which case only a failover timer re-dispatches.
    fn dispatch_attempt(
        &mut self,
        ri: usize,
        tenant: usize,
        avoid: Option<usize>,
        hedge: bool,
        out: &mut Outbox<FleetMsg>,
    ) {
        let now = self.q.now();
        let (server, probe) = self.pick_target(tenant, avoid, now);
        let tag = match &mut self.fo {
            None => tag_of(ri, 0),
            Some(fo) => {
                let req = &mut fo.reqs[ri];
                let k = req.attempts.len();
                debug_assert!(k < MAX_ATTEMPTS);
                let tag = tag_of(ri, k);
                if probe {
                    fo.probing_tag[server] = Some(tag);
                }
                let pol = fo.cfg.classes[req.class];
                let backoff = if hedge { 0 } else { req.retries_used };
                let timeout = pol.timeout * (1u64 << backoff.min(MAX_BACKOFF_SHIFT));
                self.q.schedule_at(now + timeout, Ev::Timeout(tag));
                if k == 0 {
                    if let Some(h) = pol.hedge_after {
                        self.q.schedule_at(now + h, Ev::Hedge(tag));
                    }
                }
                req.attempts.push(Attempt {
                    server,
                    sent_at: now,
                    live: true,
                    hedge,
                });
                tag
            }
        };
        self.outstanding[server] += 1;
        self.dispatched[server] += 1;
        if self.outages[server].iter().any(|o| o.covers(now)) {
            if let Some(fo) = &mut self.fo {
                fo.rep.dispatches_dropped += 1;
            }
        } else {
            out.send(
                server,
                now + self.fabric.delivery_time(self.request_bytes),
                FleetMsg::Dispatch { tenant, tag },
            );
        }
    }

    fn arrival(&mut self, tenant: usize, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        let ts = &mut self.tenants[tenant];
        ts.to_offer -= 1;
        if ts.to_offer > 0 {
            let gap = ts.gen.next_gap();
            self.q.schedule_at(now + gap, Ev::Arrival(tenant));
        }
        let ri = self.arrived.len();
        self.arrived.push(now);
        if let Some(fo) = &mut self.fo {
            let class = tenant % fo.cfg.classes.len();
            fo.rep.classes[class].offered += 1;
            fo.reqs.push(FoReq {
                tenant,
                class,
                attempts: Vec::new(),
                retries_used: 0,
                open: true,
            });
        }
        self.dispatch_attempt(ri, tenant, None, false, out);
    }

    /// Closes request `ri` with a winning resolution's verdict. Under
    /// failover a completion past its class SLO counts late even if
    /// the server met its own deadline.
    fn close_with(&mut self, ri: usize, outcome: Outcome, via_hedge: bool) {
        let now = self.q.now();
        let arrived = self.arrived[ri];
        let verdict = match outcome {
            Outcome::Completed { within_deadline } => {
                let in_slo = self
                    .fo
                    .as_ref()
                    .is_none_or(|fo| now <= arrived + fo.cfg.classes[fo.reqs[ri].class].slo);
                if within_deadline && in_slo {
                    self.e2e.record((now - arrived).as_secs_f64());
                    Verdict::Goodput
                } else {
                    Verdict::Late
                }
            }
            Outcome::Shed => Verdict::Shed,
        };
        self.tally(ri, verdict, via_hedge);
    }

    /// Counts request `ri`'s close fleet-wide and, under failover, in
    /// its class.
    fn tally(&mut self, ri: usize, verdict: Verdict, via_hedge: bool) {
        match verdict {
            Verdict::Goodput => self.goodput += 1,
            Verdict::Late => self.late += 1,
            Verdict::Shed => self.shed += 1,
        }
        if let Some(fo) = &mut self.fo {
            let req = &mut fo.reqs[ri];
            req.open = false;
            let totals = &mut fo.rep.classes[req.class];
            match verdict {
                Verdict::Goodput => {
                    totals.goodput += 1;
                    if via_hedge {
                        fo.rep.hedge_wins += 1;
                    }
                }
                Verdict::Late => totals.late += 1,
                Verdict::Shed => totals.shed += 1,
            }
        }
    }

    /// Request `ri` has no live attempts left. Re-dispatch if budget
    /// and SLO headroom remain; otherwise shed it at the LB.
    /// `shed_resolution` carries a server Shed that triggered this —
    /// when the budget is spent it becomes the winning resolution
    /// (the request resolves as shed *by the server*); on a re-dispatch
    /// it is superseded and counts as a cancelled duplicate.
    fn retry_or_shed(&mut self, ri: usize, shed_resolution: bool, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        let arrived = self.arrived[ri];
        let fo = self.fo_mut();
        let req = &mut fo.reqs[ri];
        let pol = fo.cfg.classes[req.class];
        let in_slo = now <= arrived + pol.slo;
        let budget = req.retries_used < pol.retries && req.attempts.len() < MAX_ATTEMPTS;
        if budget && in_slo {
            let last = req.attempts.last().map(|a| a.server);
            let tenant = req.tenant;
            req.retries_used += 1;
            fo.rep.retries += 1;
            if shed_resolution {
                fo.rep.duplicates_cancelled += 1;
            }
            self.dispatch_attempt(ri, tenant, last, false, out);
        } else {
            // The server's Shed wins: the request resolves as shed.
            // Without one the timer alone closes it — no resolution
            // ever wins.
            if !shed_resolution {
                fo.rep.lb_shed += 1;
            }
            self.tally(ri, Verdict::Shed, false);
        }
    }

    fn done(&mut self, server: usize, tag: u64, outcome: Outcome, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        let (ri, k) = untag(tag);
        let Some(fo) = &mut self.fo else {
            // Without failover an attempt is its request's only one and
            // resolves at most once.
            self.release(server);
            self.close_with(ri, outcome, false);
            return;
        };
        fo.rep.resolutions_received += 1;
        // Health signals. A probe reinstates the server only when the
        // probed request actually completed: a crashed server's shed
        // layer answers probes instantly over a perfectly healthy
        // network, and reinstating it would ping-pong traffic into a
        // black hole. Otherwise a completion contributes an RTT
        // sample, while a shed — however *fast* it came back —
        // extends the server's failure streak: a crashed or saturated
        // server rejecting instantly must lose traffic, not gain it.
        if fo.probing_tag[server] == Some(tag) {
            fo.probing_tag[server] = None;
            match outcome {
                Outcome::Completed { .. } => fo.health.probe_ok(server),
                Outcome::Shed => fo.health.probe_fail(server, now),
            }
        } else {
            match outcome {
                Outcome::Completed { .. } => {
                    let sent = fo.reqs[ri].attempts[k].sent_at;
                    fo.health.record(server, (now - sent).as_secs_f64(), now);
                }
                Outcome::Shed => fo.health.on_failure(server, now),
            }
        }
        if let Some(s) = fo.retire(ri, k) {
            self.release(s);
        }
        let fo = self.fo_mut();
        let req = &fo.reqs[ri];
        if !req.open {
            fo.rep.duplicates_cancelled += 1;
            return;
        }
        match outcome {
            Outcome::Completed { .. } => {
                // First resolution wins — even a late original whose
                // timer already fired and whose retry is in flight;
                // the retry's resolution will arrive as a duplicate.
                let via_hedge = req.attempts[k].hedge;
                self.close_with(ri, outcome, via_hedge);
            }
            Outcome::Shed => {
                if req.attempts.iter().any(|a| a.live) {
                    // A parallel arm (hedge or raced retry) is still
                    // running; this shed decides nothing.
                    fo.rep.duplicates_cancelled += 1;
                } else {
                    self.retry_or_shed(ri, true, out);
                }
            }
        }
    }

    fn timeout(&mut self, tag: u64, out: &mut Outbox<FleetMsg>) {
        let now = self.q.now();
        let (ri, k) = untag(tag);
        let fo = self.fo_mut();
        let Some(server) = fo.retire(ri, k) else {
            return; // Resolved before the timer fired; stale.
        };
        fo.rep.timeouts += 1;
        if fo.probing_tag[server] == Some(tag) {
            fo.probing_tag[server] = None;
            fo.health.probe_fail(server, now);
        } else {
            fo.health.on_failure(server, now);
        }
        let req = &fo.reqs[ri];
        // A hedge-arm timer of an already-closed request, or the
        // other arm still in flight: nothing to re-dispatch.
        let settled = !req.open || req.attempts.iter().any(|a| a.live);
        self.release(server);
        if !settled {
            self.retry_or_shed(ri, false, out);
        }
    }

    fn hedge(&mut self, tag: u64, out: &mut Outbox<FleetMsg>) {
        let (ri, k) = untag(tag);
        let fo = self.fo_mut();
        let req = &fo.reqs[ri];
        if !req.open || !req.attempts[k].live || req.attempts.len() >= MAX_ATTEMPTS {
            return;
        }
        let (primary, tenant) = (req.attempts[k].server, req.tenant);
        fo.rep.hedges += 1;
        self.dispatch_attempt(ri, tenant, Some(primary), true, out);
    }

    /// Closes the run into the fleet's result, given what the server
    /// partitions reported. Under failover the health counters and the
    /// server-side `resolutions_dropped` fold into the report, with the
    /// count of requests still open — structurally zero.
    pub(super) fn finish(
        mut self,
        windows: WindowStats,
        servers: Vec<RunResult>,
        server_events: u64,
        resolutions_dropped: u64,
    ) -> FleetResult {
        let failover = self.fo.map(|fo| FailoverReport {
            demotions: fo.health.demotions,
            darks: fo.health.darks,
            probes: fo.health.probes,
            recoveries: fo.health.recoveries,
            stranded: fo.reqs.iter().filter(|r| r.open).count() as u64,
            resolutions_dropped,
            ..fo.rep
        });
        FleetResult {
            offered: self.arrived.len() as u64,
            dispatched: self.dispatched,
            goodput: self.goodput,
            late: self.late,
            shed: self.shed,
            e2e_p50: Time::from_secs_f64(self.e2e.p50().unwrap_or(0.0)),
            e2e_p99: Time::from_secs_f64(self.e2e.p99().unwrap_or(0.0)),
            e2e_p999: Time::from_secs_f64(self.e2e.p999().unwrap_or(0.0)),
            windows,
            events: server_events + self.q.events_processed(),
            servers,
            failover,
        }
    }
}

impl Partition for Balancer {
    type Msg = FleetMsg;

    fn next_time(&self) -> Option<Time> {
        self.q.peek_time()
    }

    fn advance(&mut self, horizon: Time, inbox: Vec<XMsg<FleetMsg>>, out: &mut Outbox<FleetMsg>) {
        // Returning resolutions join the local queue so they interleave
        // with arrivals and timers in timestamp order.
        for m in inbox {
            let FleetMsg::Done { tag, outcome } = m.payload else {
                unreachable!("the LB only receives resolutions");
            };
            self.q.schedule_at(
                m.time,
                Ev::Done {
                    server: m.src,
                    tag,
                    outcome,
                },
            );
        }
        while self.q.peek_time().is_some_and(|t| t < horizon) {
            match self.q.pop().expect("peeked event") {
                Ev::Arrival(t) => self.arrival(t, out),
                Ev::Done {
                    server,
                    tag,
                    outcome,
                } => self.done(server, tag, outcome, out),
                Ev::Timeout(tag) => self.timeout(tag, out),
                Ev::Hedge(tag) => self.hedge(tag, out),
            }
        }
    }
}
