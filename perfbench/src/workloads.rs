//! The four workloads and the layer probes of the traced run.
//!
//! A pass builds a fresh [`Suite`] (set-up) and then drives the
//! simulator through its public entry points only: experiments through
//! `run_experiment_checked`, single servers through `simulate`, fleets
//! through `run_fleet`. Every call goes through the [`Tracer`], so the
//! same code serves the timed and the traced runs. Outputs are digested
//! after the pass's clock stops, so checking costs nothing in `wall`.

use crate::trace::{Timed, Tracer};
use dmx_bench::{run_experiment_checked, EXPERIMENTS};
use dmx_core::experiments::{failover::LOAD, fleet::fleet_cfg};
use dmx_core::experiments::{fig18::LANE_COUNTS, fig5::characterize_one, Suite};
use dmx_core::system::units;
use dmx_core::{
    run_fleet, simulate, AdmissionParams, BenchmarkRef, ChecksumMode, ClassPolicy, FailSlowConfig,
    FailoverConfig, FleetConfig, FleetFaultPlan, FleetResult, HealthParams, IntegrityConfig,
    LbHealthParams, LbPolicy, Mode, OverloadConfig, Placement, RequestClass, RunResult, ServerKill,
    ShedPolicy, SystemConfig,
};
use dmx_drx::DrxConfig;
use dmx_kernels::checksum::{fnv1a, Checksum};
use dmx_sim::fault::{CrashEvent, CrashTarget, DegradeEvent, DegradeTarget, FaultConfig};
use dmx_sim::{events_delivered, setup_nanos, ArrivalProcess, Percentiles, Time};
use std::collections::BTreeMap;
use std::fmt::{self, Write};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every experiment of `repro all`, serially, on a fresh suite.
    ReproAll,
    /// Throughput-mode servers over six modes and three concurrencies.
    ServerSweep,
    /// Five BitW tenants with every robustness layer on.
    RobustServer,
    /// Four servers behind the load balancer, at one shard.
    Fleet,
}

impl Workload {
    /// Every workload, in the order the traced run visits them.
    pub const ALL: [Workload; 4] = [
        Workload::ReproAll,
        Workload::ServerSweep,
        Workload::RobustServer,
        Workload::Fleet,
    ];

    /// The name the command line and the metrics use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReproAll => "repro_all",
            Workload::ServerSweep => "server_sweep",
            Workload::RobustServer => "robust_server",
            Workload::Fleet => "fleet",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Concurrencies of the server sweep: few, moderate and many pending
/// events and active flows.
pub const SWEEP_APPS: [usize; 3] = [5, 15, 40];

/// The six modes of the server sweep, with their metric labels.
pub const SWEEP_MODES: [(&str, Mode); 6] = [
    ("all-cpu", Mode::AllCpu),
    ("multi-axl", Mode::MultiAxl),
    ("dmx-integrated", Mode::Dmx(Placement::Integrated)),
    ("dmx-standalone", Mode::Dmx(Placement::Standalone)),
    ("dmx-bitw", Mode::Dmx(Placement::BumpInTheWire)),
    ("dmx-pcie", Mode::Dmx(Placement::PcieIntegrated)),
];

/// Requests each app pipelines in a server-sweep cell.
const SWEEP_REQUESTS: usize = 200;

/// Tenants of the robust server and of every fleet server.
const TENANTS: usize = 5;

/// Robust-server cells per pass; cell `k` draws from sub-seed `seed + k`.
const ROBUST_CELLS: u64 = 16;

/// Open-loop arrivals per tenant in a robust-server cell.
const ROBUST_ARRIVALS: usize = 800;

/// Arrivals per tenant per server in a fleet cell.
const FLEET_ARRIVALS: usize = 600;

/// Arrivals per tenant per server in the partition probe's replayed
/// cell: two-shard windows cost tens of microseconds on a two-core
/// host, so the replay stays small.
const REPLAY_ARRIVALS: usize = 40;

/// Servers behind the load balancer.
const FLEET_SERVERS: usize = 4;

/// The fleet cells: every LB policy, with and without a server-0 kill.
const FLEET_CELLS: [(&str, LbPolicy, bool); 6] = [
    ("round-robin", LbPolicy::RoundRobin, false),
    ("round-robin+kill", LbPolicy::RoundRobin, true),
    ("least-loaded", LbPolicy::LeastLoaded, false),
    ("least-loaded+kill", LbPolicy::LeastLoaded, true),
    ("tenant-affinity", LbPolicy::TenantAffinity, false),
    ("tenant-affinity+kill", LbPolicy::TenantAffinity, true),
];

/// One timed call into the program.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Experiment id, mode or fleet cell.
    pub label: &'static str,
    /// Concurrent apps (server sweep), else 0.
    pub apps: usize,
    /// Host seconds of the call.
    pub secs: f64,
    /// Host seconds of System construction inside the call.
    pub setup: f64,
    /// Simulated events the call delivered.
    pub events: u64,
}

/// A checked unit of work: one experiment or one simulated cell.
#[derive(Debug, Clone)]
pub struct Op {
    /// Experiment id or cell label.
    pub name: String,
    /// Its checks and ledgers held.
    pub ok: bool,
    /// FNV-1a of its rendered report or `Debug` result.
    pub digest: u64,
}

/// The output of one call, kept until the pass's clock stops.
enum Payload {
    Report(String),
    Run(Box<RunResult>),
    Fleet(Box<FleetResult>),
}

impl Payload {
    fn digest(&self) -> u64 {
        match self {
            Payload::Report(s) => fnv1a(s.as_bytes()),
            Payload::Run(r) => debug_digest(r),
            Payload::Fleet(f) => debug_digest(f),
        }
    }
}

/// Feeds formatted text into a running FNV-1a digest.
struct Digest(Checksum);

impl Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.update(s.as_bytes());
        Ok(())
    }
}

/// FNV-1a of `x`'s `Debug` text, the same as `fnv1a` of the formatted
/// string, without building the string: the largest results format to
/// megabytes, which would show in the peak RSS.
fn debug_digest(x: &impl fmt::Debug) -> u64 {
    let mut d = Digest(Checksum::new());
    write!(d, "{x:?}").expect("digest writer never fails");
    d.0.digest()
}

struct Pending {
    name: String,
    ok: bool,
    payload: Payload,
}

/// One pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Tracer pass id.
    pub id: u32,
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host seconds of the whole pass.
    pub wall: f64,
    /// Host seconds of `Suite::new`.
    pub suite: f64,
    /// Host seconds of set-up: `Suite::new` plus System construction.
    pub setup: f64,
    /// Host seconds the program spent rendering reports.
    pub render: f64,
    /// Simulated requests resolved (completed, late, shed or killed).
    pub requests: u64,
    /// Simulated events delivered (process-wide counter).
    pub events: u64,
    /// Per-call timings.
    pub cells: Vec<Cell>,
    /// Model counts summed over the pass.
    pub counts: BTreeMap<&'static str, f64>,
    /// Checked outputs, in call order.
    pub ops: Vec<Op>,
}

impl Pass {
    /// Host seconds outside set-up and rendering.
    pub fn loop_secs(&self) -> f64 {
        (self.wall - self.setup - self.render).max(1e-9)
    }

    fn add(&mut self, key: &'static str, v: f64) {
        *self.counts.entry(key).or_default() += v;
    }
}

fn nanos_to_secs(n: u64) -> f64 {
    n as f64 / 1e9
}

/// Runs one pass of `w` under `seed` as tracer pass `id`.
pub fn run_pass(w: Workload, tr: &mut Tracer, seed: u64, id: u32) -> Pass {
    let ev0 = events_delivered();
    let start = tr.begin_pass(id);
    let (suite, built) = tr.call("suite_build", Suite::new);
    let su0 = setup_nanos();
    let mut p = Pass {
        id,
        traced: tr.is_on(),
        ..Pass::default()
    };
    let pending = match w {
        Workload::ReproAll => repro_all(tr, &suite, seed, &mut p),
        Workload::ServerSweep => server_sweep(tr, &suite, seed, &mut p),
        Workload::RobustServer => robust_server(tr, &suite, seed, &mut p),
        Workload::Fleet => fleet(tr, &suite, seed, &mut p),
    };
    p.wall = tr.end_pass(start);
    p.suite = built.secs();
    p.setup = p.suite + nanos_to_secs(setup_nanos() - su0);
    p.events = events_delivered() - ev0;
    p.ops = pending
        .into_iter()
        .map(|x| Op {
            digest: x.payload.digest(),
            name: x.name,
            ok: x.ok,
        })
        .collect();
    p
}

/// The `(N/M claims in band)` count from the rendered summary.
fn claims_in_band(report: &str) -> Option<f64> {
    let rest = &report[report.find('(')? + 1..];
    rest[..rest.find('/')?].trim().parse().ok()
}

fn repro_all(tr: &mut Tracer, suite: &Suite, seed: u64, p: &mut Pass) -> Vec<Pending> {
    let mut out = Vec::with_capacity(EXPERIMENTS.len());
    for id in EXPERIMENTS {
        let su = setup_nanos();
        let (o, t) = tr.call("exp", || run_experiment_checked(suite, id, Some(seed)));
        let setup = nanos_to_secs(setup_nanos() - su);
        tr.child(t, "setup", setup, false);
        tr.child(t, "render", o.render_secs, true);
        p.render += o.render_secs;
        p.cells.push(Cell {
            label: id,
            apps: 0,
            secs: t.secs(),
            setup,
            events: 0,
        });
        let mut ok = o.ok;
        if id == "summary" {
            let claims = claims_in_band(&o.report);
            ok &= claims.is_some();
            p.add("claims", claims.unwrap_or(0.0));
        }
        out.push(Pending {
            name: id.to_string(),
            ok,
            payload: Payload::Report(o.report),
        });
    }
    out
}

/// One `simulate` call, timed, with its set-up attached as a child.
fn sim_cell(
    tr: &mut Tracer,
    label: &'static str,
    apps: usize,
    cfg: &SystemConfig,
) -> (RunResult, Cell) {
    let su = setup_nanos();
    let ev = events_delivered();
    let (r, t) = tr.call("simulate", || simulate(cfg));
    let setup = nanos_to_secs(setup_nanos() - su);
    tr.child(t, "setup", setup, false);
    let cell = Cell {
        label,
        apps,
        secs: t.secs(),
        setup,
        events: events_delivered() - ev,
    };
    (r, cell)
}

/// A balanced mix of `n` apps, rotated by the seed: for the sweep's
/// multiples of five every rotation is the same work in another order.
fn rotated_mix(suite: &Suite, n: usize, seed: u64) -> Vec<BenchmarkRef> {
    let b = suite.benchmarks();
    let off = (seed % b.len() as u64) as usize;
    (0..n).map(|i| b[(i + off) % b.len()].clone()).collect()
}

/// The server-sweep cell of `mode` at `n` apps.
fn sweep_cfg(suite: &Suite, seed: u64, mode: Mode, n: usize) -> SystemConfig {
    SystemConfig {
        requests_per_app: SWEEP_REQUESTS,
        ..SystemConfig::throughput(mode, rotated_mix(suite, n, seed))
    }
}

/// Closed-loop ledger: every app completed every request.
fn closed_loop_ok(r: &RunResult, cfg: &SystemConfig) -> bool {
    r.apps.iter().all(|a| a.completed == cfg.requests_per_app)
}

fn server_sweep(tr: &mut Tracer, suite: &Suite, seed: u64, p: &mut Pass) -> Vec<Pending> {
    let mut out = Vec::new();
    for n in SWEEP_APPS {
        for (label, mode) in SWEEP_MODES {
            let cfg = sweep_cfg(suite, seed, mode, n);
            let (r, cell) = sim_cell(tr, label, n, &cfg);
            p.requests += r.apps.iter().map(|a| a.completed as u64).sum::<u64>();
            p.add("irq", r.notify_counts.0 as f64);
            p.add("polled", r.notify_counts.1 as f64);
            p.cells.push(cell);
            out.push(Pending {
                name: format!("{label}@{n}"),
                ok: closed_loop_ok(&r, &cfg),
                payload: Payload::Run(Box::new(r)),
            });
        }
    }
    out
}

/// The clean closed-loop BitW run that calibrates the load of the robust
/// and fleet cells.
fn clean_cfg(suite: &Suite) -> SystemConfig {
    SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(TENANTS))
}

/// (mean latency, slowest app latency) of the clean run.
fn capacity(clean: &RunResult) -> (Time, Time) {
    let mean = clean.mean_latency();
    (
        mean,
        clean.apps.iter().map(|a| a.latency).max().unwrap_or(mean),
    )
}

/// The clean run as a checked cell of the pass.
fn calibrate(tr: &mut Tracer, suite: &Suite, p: &mut Pass, out: &mut Vec<Pending>) -> (Time, Time) {
    let cfg = clean_cfg(suite);
    let (r, cell) = sim_cell(tr, "calibrate", TENANTS, &cfg);
    let cap = capacity(&r);
    p.requests += r.apps.iter().map(|a| a.completed as u64).sum::<u64>();
    p.cells.push(cell);
    out.push(Pending {
        name: "calibrate".into(),
        ok: closed_loop_ok(&r, &cfg),
        payload: Payload::Run(Box::new(r)),
    });
    cap
}

/// Which robustness layers a robust-server cell turns on.
#[derive(Debug, Clone, Copy)]
struct Layers {
    /// Open-loop overload with admission, EDF and reject-shedding.
    overload: bool,
    /// SDC injection with per-hop checksums and re-execution.
    integrity: bool,
    /// Device and driver crashes with checkpoint migration.
    crash: bool,
    /// A 4x gray device with demotion and hedging.
    failslow: bool,
}

impl Layers {
    /// Every layer on.
    const ALL: Layers = Layers {
        overload: true,
        integrity: true,
        crash: true,
        failslow: true,
    };
    /// Every layer `None`.
    const NONE: Layers = Layers {
        overload: false,
        integrity: false,
        crash: false,
        failslow: false,
    };
}

/// The robust-server cell with `layers` on.
fn robust_cfg(
    suite: &Suite,
    seed: u64,
    (mean, slowest): (Time, Time),
    layers: Layers,
) -> SystemConfig {
    let horizon = mean * ROBUST_ARRIVALS as u64;
    let mut faults = FaultConfig::none();
    faults.seed = seed;
    if layers.integrity {
        faults.sdc.spad_flip_rate = 3e-7;
        faults.sdc.dma_flip_rate = 1e-7;
    }
    if layers.crash {
        faults.crashes = vec![
            CrashEvent {
                target: CrashTarget::Device(units::bitw(1, 0)),
                at: horizon.scale(0.2),
                down_for: Some(horizon.scale(0.1)),
            },
            CrashEvent {
                target: CrashTarget::Driver,
                at: horizon.scale(0.5),
                down_for: Some(horizon.scale(0.03)),
            },
        ];
    }
    if layers.failslow {
        faults.degrades = vec![DegradeEvent {
            target: DegradeTarget::Device(units::bitw(3, 0)),
            at: Time::ZERO,
            down_for: None,
            slowdown: 4.0,
            jitter: 0.0,
            duty: None,
        }];
    }
    let overload = layers.overload.then(|| {
        let rate = 1.5 / mean.as_secs_f64();
        let mut arrivals = vec![ArrivalProcess::Mmpp {
            low_rps: 0.2 * rate,
            high_rps: 1.8 * rate,
            mean_dwell: slowest * 6,
        }];
        arrivals.resize(TENANTS, ArrivalProcess::Poisson { rate_rps: rate });
        OverloadConfig {
            seed,
            arrivals,
            admission: AdmissionParams {
                tokens_per_sec: 1.3 * rate,
                burst: 4.0,
                max_inflight: 8,
            },
            deadline: slowest * 4,
            shed: ShedPolicy::Reject,
            queue_capacity: 8,
            ..OverloadConfig::none()
        }
    });
    let integrity = layers.integrity.then(|| IntegrityConfig {
        max_reexec: 8,
        ..IntegrityConfig::checked(ChecksumMode::PerHop)
    });
    let failslow = layers.failslow.then(|| FailSlowConfig {
        scorer: HealthParams {
            window: 8,
            min_samples: 2,
            outlier_factor: 2.0,
            probation: mean,
        },
        demote: true,
        hedge_multiplier: 1.2,
        hedge_floor: Time::from_us(1),
    });
    SystemConfig {
        requests_per_app: ROBUST_ARRIVALS,
        faults: (!faults.is_inert()).then_some(faults),
        overload,
        integrity,
        failslow,
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(TENANTS))
    }
}

/// Requests offered to a single-server cell.
fn offered(r: &RunResult, cfg: &SystemConfig) -> u64 {
    match &r.overload {
        Some(o) => o.tenants.iter().map(|t| t.offered).sum(),
        None => (cfg.apps.len() * cfg.requests_per_app) as u64,
    }
}

/// Requests a single-server cell resolved: completed in or out of
/// deadline, shed at admission, queue or deadline, quarantined, or
/// killed by a crash.
fn resolved(r: &RunResult) -> u64 {
    let served: u64 = match &r.overload {
        Some(o) => o
            .tenants
            .iter()
            .map(|t| {
                t.goodput + t.late + t.rejected_admission + t.rejected_queue_full + t.shed_deadline
            })
            .sum(),
        None => r.apps.iter().map(|a| a.completed as u64).sum(),
    };
    served + r.integrity.quarantine_shed + r.crashes.crash_killed
}

fn robust_server(tr: &mut Tracer, suite: &Suite, seed: u64, p: &mut Pass) -> Vec<Pending> {
    let mut out = Vec::new();
    let cap = calibrate(tr, suite, p, &mut out);
    for k in 0..ROBUST_CELLS {
        let cfg = robust_cfg(suite, seed.wrapping_add(k), cap, Layers::ALL);
        let (r, cell) = sim_cell(tr, "robust", TENANTS, &cfg);
        let offered = offered(&r, &cfg);
        let resolved = resolved(&r);
        p.requests += resolved;
        p.cells.push(cell);
        let shed: u64 = r.overload.as_ref().map_or(0, |o| {
            o.tenants
                .iter()
                .map(|t| t.rejected_admission + t.rejected_queue_full + t.shed_deadline)
                .sum()
        });
        p.add("offered", offered as f64);
        p.add("shed", shed as f64);
        p.add("detected", r.integrity.detected as f64);
        p.add("reexecs", r.integrity.reexecs as f64);
        p.add("migrations", r.crashes.migrations as f64);
        p.add("hedged", r.failslow.hedged as f64);
        p.add("won_hedge", r.failslow.won_hedge as f64);
        out.push(Pending {
            name: format!("robust#{k}"),
            ok: offered == resolved && r.integrity.escaped == 0,
            payload: Payload::Run(Box::new(r)),
        });
    }
    out
}

/// Retry plus hedge at the LB, as in the failover sweep's strongest
/// policy: two classes, timeouts far above healthy latency.
fn retry_hedge() -> FailoverConfig {
    FailoverConfig {
        health: LbHealthParams::default(),
        classes: vec![
            ClassPolicy {
                class: RequestClass::LatencySensitive,
                slo: Time::from_secs_f64(60.0),
                timeout: Time::from_secs_f64(5.0),
                retries: 3,
                hedge_after: Some(Time::from_ms(50)),
            },
            ClassPolicy {
                class: RequestClass::Batch,
                slo: Time::from_secs_f64(120.0),
                timeout: Time::from_secs_f64(10.0),
                retries: 3,
                hedge_after: None,
            },
        ],
    }
}

/// A fleet cell: `policy` with retry+hedge failover, optionally killing
/// server 0 for good a quarter into the arrival span.
fn fleet_cell(
    suite: &Suite,
    seed: u64,
    (mean, slowest): (Time, Time),
    policy: LbPolicy,
    kill: bool,
    arrivals: usize,
) -> FleetConfig {
    let mut cfg = fleet_cfg(
        suite,
        seed,
        mean,
        slowest,
        FLEET_SERVERS,
        LOAD,
        policy,
        arrivals,
    );
    cfg.failover = Some(retry_hedge());
    if kill {
        let rate = match cfg.arrivals.last() {
            Some(ArrivalProcess::Poisson { rate_rps }) => *rate_rps,
            _ => 1.0 / mean.as_secs_f64(),
        };
        let span = Time::from_secs_f64(cfg.requests_per_tenant as f64 / rate);
        let mut plan = FleetFaultPlan::none();
        plan.kills.push(ServerKill {
            server: 0,
            at: span.scale(0.25),
            down_for: None,
        });
        cfg.fault_plan = Some(plan);
    }
    cfg
}

fn fleet(tr: &mut Tracer, suite: &Suite, seed: u64, p: &mut Pass) -> Vec<Pending> {
    let mut out = Vec::new();
    let cap = calibrate(tr, suite, p, &mut out);
    for (label, policy, kill) in FLEET_CELLS {
        let cfg = fleet_cell(suite, seed, cap, policy, kill, FLEET_ARRIVALS);
        let su = setup_nanos();
        let (r, t) = tr.call("run_fleet", || run_fleet(&cfg, 1));
        let setup = nanos_to_secs(setup_nanos() - su);
        tr.child(t, "setup", setup, false);
        p.requests += r.resolved();
        p.cells.push(Cell {
            label,
            apps: 0,
            secs: t.secs(),
            setup,
            events: r.events,
        });
        p.add("fleet_events", r.events as f64);
        p.add("windows", r.windows.windows as f64);
        p.add("messages", r.windows.messages as f64);
        p.add("dispatched", r.dispatched.iter().sum::<u64>() as f64);
        p.add("fleet_offered", r.offered as f64);
        p.add("goodput", r.goodput as f64);
        out.push(Pending {
            name: label.to_string(),
            ok: r.conserved_with_duplicates(),
            payload: Payload::Fleet(Box::new(r)),
        });
    }
    out
}

/// Median of `xs` by nearest rank (NaN when empty).
pub fn median(xs: Vec<f64>) -> f64 {
    let mut p = Percentiles::new();
    xs.into_iter().for_each(|x| p.record(x));
    p.p50().unwrap_or(f64::NAN)
}

/// Repetitions of each timed probe; the probes report medians.
const PROBE_REPS: usize = 3;

/// Layer figures measured by probes outside the workload passes.
#[derive(Debug, Default)]
pub struct Probes {
    /// Named per-layer values.
    pub values: BTreeMap<String, f64>,
    /// Checked outputs of the probes.
    pub ops: Vec<Op>,
}

impl Probes {
    fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }
}

/// Cold `Edge::drx_cost` calls for fig18's four FPGA lane configs on a
/// fresh suite: a call is cold when it took over ten times as long as
/// the same call repeated.
fn drx_probe(tr: &mut Tracer, probed: &mut Probes) {
    let (suite, _) = tr.call("suite_build", Suite::new);
    let (mut cold, mut secs) = (0u32, 0.0);
    for lanes in LANE_COUNTS {
        let cfg = DrxConfig::fpga().with_lanes(lanes);
        for b in suite.benchmarks() {
            for e in &b.edges {
                let (_, first) = tr.call("drx_cost", || e.drx_cost(&cfg));
                let (_, again) = tr.call("drx_cost", || e.drx_cost(&cfg));
                if first.secs() > 10.0 * again.secs() {
                    cold += 1;
                    secs += first.secs();
                }
            }
        }
    }
    probed.set("drx.cost_calls_cold", f64::from(cold));
    probed.set("drx.cost_s", secs);
}

/// Host time of one characterization of every suite op, and the number
/// of characterizations a `repro all` pass makes: fig5 makes one per
/// op; `summary` repeats them unless it reuses fig5's, which shows as
/// `summary` running faster after fig5 on the same suite than alone.
fn cpu_probe(tr: &mut Tracer, seed: u64, probed: &mut Probes) {
    let (suite, _) = tr.call("suite_build", Suite::new);
    let mut one_set = 0.0;
    for b in suite.benchmarks() {
        let (_, t) = tr.call("characterize", || characterize_one(b));
        one_set += t.secs();
    }
    let (_, _) = tr.call("exp", || run_experiment_checked(&suite, "fig5", Some(seed)));
    let (_, after) = tr.call("exp", || {
        run_experiment_checked(&suite, "summary", Some(seed))
    });
    let (fresh, _) = tr.call("suite_build", Suite::new);
    let (_, alone) = tr.call("exp", || {
        run_experiment_checked(&fresh, "summary", Some(seed))
    });
    let ops = suite.benchmarks().len() as f64;
    let reused = ((alone.secs() - after.secs()) / one_set).clamp(0.0, 1.0);
    probed.set(
        "cpu.characterize_calls",
        ops + (ops * (1.0 - reused)).round(),
    );
    probed.set("cpu.characterize_s", one_set);
}

/// One fleet cell replayed at one and two shards: host time per
/// conservative window, and the two-shard speedup. The two results
/// must be byte-identical.
fn partition_probe(tr: &mut Tracer, seed: u64, probed: &mut Probes) {
    let (suite, _) = tr.call("suite_build", Suite::new);
    let (clean, _) = tr.call("simulate", || simulate(&clean_cfg(&suite)));
    let cap = capacity(&clean);
    let cfg = fleet_cell(
        &suite,
        seed,
        cap,
        LbPolicy::LeastLoaded,
        true,
        REPLAY_ARRIVALS,
    );
    let (mut s1, mut s2) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        for (shards, times) in [(1, &mut s1), (2, &mut s2)] {
            let (f, t) = tr.call("run_fleet", || run_fleet(&cfg, shards));
            times.push((t, f));
        }
    }
    let per_window = |xs: &[(Timed, FleetResult)]| {
        median(
            xs.iter()
                .map(|(t, f)| t.secs() * 1e6 / f.windows.windows.max(1) as f64)
                .collect(),
        )
    };
    let u1 = per_window(&s1);
    let u2 = per_window(&s2);
    probed.set("partition.us_per_window.s1", u1);
    probed.set("partition.us_per_window.s2", u2);
    probed.set("partition.speedup.s2", u1 / u2);
    let base = format!("{:?}", s1[0].1);
    for (i, (_, f)) in s1.iter().chain(&s2).enumerate() {
        let text = format!("{f:?}");
        probed.ops.push(Op {
            name: format!("partition-replay#{i}"),
            ok: text == base,
            digest: fnv1a(text.as_bytes()),
        });
    }
}

/// Host ns per offered request of `cfg`, median of the probe's runs.
fn ns_per_request(
    tr: &mut Tracer,
    label: &'static str,
    cfg: &SystemConfig,
    probed: &mut Probes,
) -> f64 {
    let mut xs = Vec::new();
    for i in 0..PROBE_REPS {
        let (r, t) = tr.call("simulate", || simulate(cfg));
        let offered = offered(&r, cfg);
        xs.push(t.secs() * 1e9 / offered.max(1) as f64);
        probed.ops.push(Op {
            name: format!("{label}#{i}"),
            ok: resolved(&r) == offered,
            digest: debug_digest(&r),
        });
    }
    median(xs)
}

/// Layer taxes on the robust-server cell: each layer alone, then all,
/// against the same cell with every layer `None`.
fn tax_probe(tr: &mut Tracer, seed: u64, probed: &mut Probes) {
    let (suite, _) = tr.call("suite_build", Suite::new);
    let (clean, _) = tr.call("simulate", || simulate(&clean_cfg(&suite)));
    let cap = capacity(&clean);
    let none = Layers::NONE;
    let cells: [(&str, Layers); 6] = [
        ("none", none),
        (
            "overload",
            Layers {
                overload: true,
                ..none
            },
        ),
        (
            "integrity",
            Layers {
                integrity: true,
                ..none
            },
        ),
        (
            "crash",
            Layers {
                crash: true,
                ..none
            },
        ),
        (
            "failslow",
            Layers {
                failslow: true,
                ..none
            },
        ),
        ("all", Layers::ALL),
    ];
    let mut ns = Vec::new();
    for (label, layers) in cells {
        let cfg = robust_cfg(&suite, seed, cap, layers);
        ns.push((label, ns_per_request(tr, label, &cfg, probed)));
    }
    let base = ns[0].1;
    for (label, v) in &ns[1..] {
        probed.set(&format!("layer.{label}.tax"), v / base);
    }
}

/// The inert-layer tax on a server-sweep cell: every robustness layer
/// present but inert, against every layer `None`. Expected ~1.0.
fn inert_probe(tr: &mut Tracer, seed: u64, probed: &mut Probes) {
    let (suite, _) = tr.call("suite_build", Suite::new);
    let absent = sweep_cfg(&suite, seed, Mode::Dmx(Placement::BumpInTheWire), 15);
    let inert = SystemConfig {
        faults: Some(FaultConfig::none()),
        overload: Some(OverloadConfig::none()),
        integrity: Some(IntegrityConfig::none()),
        failslow: Some(FailSlowConfig::none()),
        ..absent.clone()
    };
    let a = ns_per_request(tr, "absent", &absent, probed);
    let i = ns_per_request(tr, "inert", &inert, probed);
    probed.set("layer.inert.tax", i / a);
}

/// The probes whose figures belong to workload `w`.
pub fn probes(w: Workload, tr: &mut Tracer, seed: u64, probed: &mut Probes) {
    match w {
        Workload::ReproAll => {
            drx_probe(tr, probed);
            cpu_probe(tr, seed, probed);
            partition_probe(tr, seed, probed);
        }
        Workload::ServerSweep => inert_probe(tr, seed, probed),
        Workload::RobustServer => tax_probe(tr, seed, probed),
        Workload::Fleet => {}
    }
}
