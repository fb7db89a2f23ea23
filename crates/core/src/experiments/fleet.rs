//! Fleet sweep: a rack of DMX servers behind a load balancer.
//!
//! Not a figure from the paper — the cluster-scale study of the
//! reproduced system. Five open-loop tenants (one per Table I
//! benchmark; tenant 0 bursts MMPP, the rest Poisson) offer load at a
//! multiple of per-server capacity, scaled with the fleet size, to a
//! front-end load balancer dispatching over a 25GbE rack fabric to
//! 1/2/4 identical servers. Every server runs the full engine —
//! admission, EDF dispatch, chains, all five robustness layers — as
//! one partition of a single conservative parallel simulation
//! (`dmx_sim::partition`), with the fabric's base latency as the
//! lookahead.
//!
//! The run embeds its own acceptance checks, re-verified on every
//! `repro fleet` invocation:
//!
//! * conservation: every arrival offered at the LB resolves exactly
//!   once (goodput + late + shed) on every cell;
//! * partition-count identity: the 4-server cell renders
//!   byte-identically executed on 1, 2, and 4 shards — the `--threads`
//!   contract, extended to `--partitions`;
//! * same-seed determinism: an independent re-run of the largest cell
//!   is byte-identical;
//! * fleet scaling: 4 servers at fixed per-server load complete at
//!   least 3x the goodput of 1 server;
//! * tenant affinity pins: tenant `t` dispatches only to server
//!   `t % servers`.
//!
//! A wall-clock speedup probe (4 shards vs 1 on a scaled-up cell) runs
//! when the host has enough cores; its measurement goes to stderr and
//! into [`FleetSweep::speedup`], never into [`FleetSweep::render`] —
//! rendered output stays byte-identical across machines and shard
//! counts.

use super::Suite;
use crate::fleet::{run_fleet, FleetConfig, FleetResult, LbPolicy};
use crate::overload::{AdmissionParams, OverloadConfig, ShedPolicy};
use crate::placement::{Mode, Placement};
use crate::report::{ms, pct, Table};
use crate::system::{simulate, SystemConfig};
use dmx_pcie::InterNodeFabric;
use dmx_sim::{par_map, ArrivalProcess, Time};
use std::sync::atomic::{AtomicBool, Ordering};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0xF1EE;

/// Fleet sizes swept.
pub const SERVERS: [usize; 3] = [1, 2, 4];

/// Offered load per server, as a multiple of the optimistic capacity
/// bound `MAX_INFLIGHT / clean_mean`. Accelerator contention puts real
/// capacity well below the bound, so 3.0x is solidly saturating.
pub const LOADS: [f64; 3] = [0.5, 1.5, 3.0];

/// Concurrent tenants (one per Table I benchmark).
const TENANTS: usize = 5;

/// Arrivals each tenant offers per server in the fleet (total offered
/// work scales with fleet size, keeping per-server work comparable).
const ARRIVALS_PER_TENANT_PER_SERVER: usize = 10;

/// Load used for the policy comparison, the identity checks and the
/// speedup probe: the middle of [`LOADS`], where queues are busy
/// enough for dispatch policy to matter but shedding is not dominant.
pub const POLICY_LOAD: f64 = 1.5;

/// Per-server concurrent-admission bound; also the capacity model's
/// concurrency term (a server completes roughly `MAX_INFLIGHT / mean`
/// requests per second when saturated).
const MAX_INFLIGHT: usize = 8;

/// One cell of the servers × load sweep.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Fleet size.
    pub servers: usize,
    /// Per-server offered load multiple.
    pub load: f64,
    /// The fleet run's results.
    pub result: FleetResult,
}

/// One row of the policy comparison (largest fleet, [`POLICY_LOAD`]).
#[derive(Debug, Clone)]
pub struct PolicyRow {
    /// The dispatch policy.
    pub policy: LbPolicy,
    /// The fleet run's results.
    pub result: FleetResult,
}

/// Wall-clock probe of the partitioned engine (4 shards vs 1 on an
/// enlarged 4-server cell). Never rendered — it depends on the host.
#[derive(Debug, Clone, Copy)]
pub struct SpeedupProbe {
    /// Aggregate engine events in the probe run.
    pub events: u64,
    /// Wall-clock seconds at 1 shard.
    pub serial_secs: f64,
    /// Wall-clock seconds at 4 shards.
    pub parallel_secs: f64,
    /// Outputs of the two runs were byte-identical.
    pub identical: bool,
}

impl SpeedupProbe {
    /// Events/sec ratio of 4 shards over 1.
    pub fn ratio(&self) -> f64 {
        self.serial_secs / self.parallel_secs.max(1e-12)
    }
}

/// The embedded acceptance checks.
#[derive(Debug, Clone)]
pub struct Checks {
    /// Every cell and policy row conserved its requests.
    pub conserved: bool,
    /// The 4-server cell is byte-identical on 1, 2, and 4 shards.
    pub partitions_identical: bool,
    /// An independent same-seed re-run is byte-identical.
    pub deterministic: bool,
    /// 4 servers deliver at least 3x the goodput of 1 at equal
    /// per-server load.
    pub scales: bool,
    /// Tenant affinity dispatched tenant `t` only to server `t % n`.
    pub affinity_pins: bool,
}

impl Checks {
    /// True when every check passed.
    pub fn all(&self) -> bool {
        self.conserved
            && self.partitions_identical
            && self.deterministic
            && self.scales
            && self.affinity_pins
    }
}

/// Full fleet-sweep results.
#[derive(Debug, Clone)]
pub struct FleetSweep {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Capacity calibration: clean closed-loop cross-tenant mean.
    pub clean_mean: Time,
    /// The servers × load sweep under least-loaded dispatch.
    pub cells: Vec<Cell>,
    /// Policy comparison at the largest fleet, [`POLICY_LOAD`].
    pub policies: Vec<PolicyRow>,
    /// The embedded acceptance checks.
    pub checks: Checks,
    /// Wall-clock speedup probe; `None` on hosts without enough cores.
    /// Excluded from [`render`](FleetSweep::render).
    pub speedup: Option<SpeedupProbe>,
}

/// The per-server system config: five tenants, bounded inflight and
/// EDF queue, deadline 4x the slowest clean latency, reject sheds.
/// The failover sweep runs the same servers.
pub(crate) fn server_cfg(suite: &Suite, slowest: Time) -> SystemConfig {
    SystemConfig {
        overload: Some(OverloadConfig {
            admission: AdmissionParams {
                tokens_per_sec: f64::INFINITY,
                burst: 1.0,
                max_inflight: MAX_INFLIGHT,
            },
            deadline: slowest * 4,
            shed: ShedPolicy::Reject,
            queue_capacity: 8,
            ..OverloadConfig::none()
        }),
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(TENANTS))
    }
}

/// The fleet config for one cell: per-tenant rate `load` times each
/// server's fair share, scaled by fleet size; tenant 0 bursts.
#[allow(clippy::too_many_arguments)]
pub fn fleet_cfg(
    suite: &Suite,
    seed: u64,
    mean: Time,
    slowest: Time,
    servers: usize,
    load: f64,
    policy: LbPolicy,
    arrivals_per_tenant_per_server: usize,
) -> FleetConfig {
    // One server completes ~MAX_INFLIGHT concurrent requests every
    // `mean`, so per-tenant fair share is a 1/TENANTS slice of that.
    let share_rps = MAX_INFLIGHT as f64 / (mean.as_secs_f64() * TENANTS as f64);
    let rate = load * share_rps * servers as f64;
    let mut arrivals = vec![ArrivalProcess::Mmpp {
        low_rps: 0.2 * rate,
        high_rps: 1.8 * rate,
        mean_dwell: slowest * 6,
    }];
    arrivals.resize(TENANTS, ArrivalProcess::Poisson { rate_rps: rate });
    FleetConfig {
        servers,
        server: server_cfg(suite, slowest),
        policy,
        fabric: InterNodeFabric::default(),
        seed,
        arrivals,
        requests_per_tenant: arrivals_per_tenant_per_server * servers,
        request_bytes: 64 << 10,
        response_bytes: 16 << 10,
        failover: None,
        fault_plan: None,
    }
}

/// When set, the wall-clock speedup probe runs even on hosts with
/// fewer than 4 cores (`repro fleet --force-speedup-probe`). The
/// probe's byte-identity check still applies; the speedup *floor* does
/// not — a 2-core host legitimately cannot show a 4-shard speedup.
static FORCE_PROBE: AtomicBool = AtomicBool::new(false);

/// Forces the speedup probe on (or back off) regardless of core count.
pub fn set_force_speedup_probe(on: bool) {
    FORCE_PROBE.store(on, Ordering::Relaxed);
}

fn force_probe() -> bool {
    FORCE_PROBE.load(Ordering::Relaxed)
}

/// Runs the sweep under the default [`SEED`] with the process-global
/// shard count (`--partitions`).
pub fn run(suite: &Suite) -> FleetSweep {
    run_with_seed(suite, SEED)
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> FleetSweep {
    let shards = dmx_sim::partition::partitions();

    // Capacity calibration: the clean closed-loop single-server run.
    let clean = simulate(&SystemConfig::latency(
        Mode::Dmx(Placement::BumpInTheWire),
        suite.mix(TENANTS),
    ));
    let mean = clean.mean_latency();
    let slowest = clean.apps.iter().map(|a| a.latency).max().expect("apps");

    // The servers × load grid under least-loaded dispatch. Cells are
    // independent, so they fan out across the worker pool; each cell's
    // *internal* parallelism follows `--partitions` (shards collapse to
    // 1 inside a par_map worker, same as nested par_map).
    let grid: Vec<(usize, f64)> = SERVERS
        .iter()
        .flat_map(|&s| LOADS.iter().map(move |&l| (s, l)))
        .collect();
    let cells: Vec<Cell> = par_map(&grid, |_, &(servers, load)| {
        let cfg = fleet_cfg(
            suite,
            seed,
            mean,
            slowest,
            servers,
            load,
            LbPolicy::LeastLoaded,
            ARRIVALS_PER_TENANT_PER_SERVER,
        );
        Cell {
            servers,
            load,
            result: run_fleet(&cfg, shards),
        }
    });

    // Policy comparison at the largest fleet, POLICY_LOAD.
    let policy_list = [
        LbPolicy::RoundRobin,
        LbPolicy::LeastLoaded,
        LbPolicy::TenantAffinity,
    ];
    let max_servers = *SERVERS.last().expect("fleet sizes");
    let policies: Vec<PolicyRow> = par_map(&policy_list, |_, &policy| {
        let cfg = fleet_cfg(
            suite,
            seed,
            mean,
            slowest,
            max_servers,
            POLICY_LOAD,
            policy,
            ARRIVALS_PER_TENANT_PER_SERVER,
        );
        PolicyRow {
            policy,
            result: run_fleet(&cfg, shards),
        }
    });

    // ---- embedded checks ---------------------------------------------
    let conserved = cells
        .iter()
        .map(|c| &c.result)
        .chain(policies.iter().map(|p| &p.result))
        .all(FleetResult::conserved);

    // Partition-count identity: the tentpole contract. The same
    // 4-server cell, executed serially and on 2 and 4 shards, must
    // produce byte-identical results.
    let ident_cfg = fleet_cfg(
        suite,
        seed,
        mean,
        slowest,
        max_servers,
        POLICY_LOAD,
        LbPolicy::LeastLoaded,
        ARRIVALS_PER_TENANT_PER_SERVER,
    );
    let serial = format!("{:?}", run_fleet(&ident_cfg, 1));
    let partitions_identical = [2, 4]
        .iter()
        .all(|&n| format!("{:?}", run_fleet(&ident_cfg, n)) == serial);

    // Same-seed determinism: the serial identity run doubles as an
    // independent re-simulation of the least-loaded policy row.
    let row = policies
        .iter()
        .find(|p| p.policy == LbPolicy::LeastLoaded)
        .expect("least-loaded row");
    let deterministic = format!("{:?}", row.result) == serial;

    // Fleet scaling at fixed 0.5x per-server load.
    let goodput_at = |servers: usize| {
        cells
            .iter()
            .find(|c| c.servers == servers && c.load == LOADS[0])
            .map(|c| c.result.goodput)
            .unwrap_or(0)
    };
    let scales = goodput_at(4) >= 3 * goodput_at(1).max(1);

    // Affinity pinning: tenant t only ever lands on server t % n, so
    // with 5 tenants on 4 servers, server 0 carries tenants 0 and 4.
    let aff = policies
        .iter()
        .find(|p| p.policy == LbPolicy::TenantAffinity)
        .expect("affinity row");
    let per_tenant = ARRIVALS_PER_TENANT_PER_SERVER as u64 * max_servers as u64;
    let expected: Vec<u64> = (0..max_servers)
        .map(|s| (s..TENANTS).step_by(max_servers).count() as u64 * per_tenant)
        .collect();
    let affinity_pins = aff.result.dispatched == expected;

    // ---- wall-clock speedup probe (host-dependent; stderr only) ------
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = (cores >= 4 || force_probe()).then(|| {
        let probe_cfg = fleet_cfg(
            suite,
            seed,
            mean,
            slowest,
            4,
            POLICY_LOAD,
            LbPolicy::LeastLoaded,
            8 * ARRIVALS_PER_TENANT_PER_SERVER,
        );
        let t0 = std::time::Instant::now();
        let a = run_fleet(&probe_cfg, 1);
        let serial_secs = t0.elapsed().as_secs_f64();
        let t1 = std::time::Instant::now();
        let b = run_fleet(&probe_cfg, 4);
        let parallel_secs = t1.elapsed().as_secs_f64();
        let probe = SpeedupProbe {
            events: a.events,
            serial_secs,
            parallel_secs,
            identical: format!("{a:?}") == format!("{b:?}"),
        };
        eprintln!(
            "fleet speedup probe: {} events, 1 shard {:.3}s ({:.2}M ev/s), \
             4 shards {:.3}s ({:.2}M ev/s), speedup {:.2}x, identical: {}",
            probe.events,
            serial_secs,
            probe.events as f64 / serial_secs.max(1e-12) / 1e6,
            parallel_secs,
            probe.events as f64 / parallel_secs.max(1e-12) / 1e6,
            probe.ratio(),
            probe.identical,
        );
        probe
    });

    FleetSweep {
        seed,
        clean_mean: mean,
        cells,
        policies,
        checks: Checks {
            conserved,
            partitions_identical,
            deterministic,
            scales,
            affinity_pins,
        },
        speedup,
    }
}

impl FleetSweep {
    /// True when every embedded acceptance check passed — and, when
    /// the host had the cores to measure it, the 4-shard probe ran
    /// byte-identically and beat the serial run (≥3x on hosts with
    /// headroom beyond the 4 worker threads, ≥2x at exactly 4 cores,
    /// where the main thread contends with the shard workers). A probe
    /// *forced* onto a smaller host (`--force-speedup-probe`) must
    /// still be byte-identical, but no speedup floor applies — the
    /// cores to beat serial aren't there.
    pub fn ok(&self) -> bool {
        let speedup_ok = self.speedup.is_none_or(|s| {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            let floor = match cores {
                _ if cores >= 6 => 3.0,
                _ if cores >= 4 => 2.0,
                _ => 0.0,
            };
            s.identical && s.ratio() >= floor
        });
        self.checks.all() && speedup_ok
    }

    /// Renders the report (deterministic: identical for any host,
    /// `--threads`, or `--partitions`).
    pub fn render(&self) -> String {
        let mut sweep = Table::new(
            [
                "servers", "load", "offered", "goodput", "late", "shed", "balance", "e2e p50",
                "e2e p99", "windows", "msgs",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for c in &self.cells {
            let r = &c.result;
            sweep.row(vec![
                c.servers.to_string(),
                format!("{:.1}x", c.load),
                r.offered.to_string(),
                r.goodput.to_string(),
                r.late.to_string(),
                format!(
                    "{} ({})",
                    r.shed,
                    pct(r.shed as f64 / r.offered.max(1) as f64)
                ),
                format!("{:.2}", r.balance()),
                ms(r.e2e_p50),
                ms(r.e2e_p99),
                r.windows.windows.to_string(),
                r.windows.messages.to_string(),
            ]);
        }

        let mut pol = Table::new(
            [
                "policy", "goodput", "late", "shed", "balance", "e2e p50", "e2e p99", "e2e p999",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for p in &self.policies {
            let r = &p.result;
            pol.row(vec![
                p.policy.to_string(),
                r.goodput.to_string(),
                r.late.to_string(),
                r.shed.to_string(),
                format!("{:.2}", r.balance()),
                ms(r.e2e_p50),
                ms(r.e2e_p99),
                ms(r.e2e_p999),
            ]);
        }

        let yn = |b: bool| if b { "yes" } else { "NO (BUG)" };
        let c = &self.checks;
        format!(
            "repro fleet — servers x load sweep behind a load balancer (seed {seed:#x})\n\
             Five open-loop tenants offer load at multiples of per-server\n\
             capacity (clean mean latency {mean}), scaled by fleet size,\n\
             through a 25us/25GbE rack fabric. One conservative partitioned\n\
             simulation per cell: each server is a partition, lookahead =\n\
             the fabric's base latency. Least-loaded dispatch.\n\n\
             {sweep}\n\
             Dispatch policies at {servers} servers, {pload}x load:\n\n{pol}\n\
             checks:\n\
             every arrival resolved exactly once    {cv}\n\
             partitions 1/2/4 byte-identical        {pi}\n\
             same-seed re-run byte-identical        {dt}\n\
             4-server goodput >= 3x 1-server        {sc}\n\
             tenant affinity pins to t mod n        {af}\n",
            seed = self.seed,
            mean = ms(self.clean_mean),
            sweep = sweep.render(),
            servers = SERVERS.last().expect("fleet sizes"),
            pload = POLICY_LOAD,
            pol = pol.render(),
            cv = yn(c.conserved),
            pi = yn(c.partitions_identical),
            dt = yn(c.deterministic),
            sc = yn(c.scales),
            af = yn(c.affinity_pins),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_reproducible_and_checks_pass() {
        let suite = Suite::new();
        let a = run(&suite);
        assert!(a.ok(), "embedded checks failed: {:?}", a.checks);
        assert_eq!(a.cells.len(), SERVERS.len() * LOADS.len());
        assert_eq!(a.policies.len(), 3);
        let b = run(&suite);
        assert_eq!(a.render(), b.render(), "same seed must be byte-identical");
        let c = run_with_seed(&suite, SEED + 1);
        assert!(c.ok(), "checks must hold under other seeds");
        assert_ne!(a.render(), c.render());
    }

    #[test]
    fn shedding_grows_with_load() {
        let suite = Suite::new();
        let r = run(&suite);
        // At 4 servers, saturating load must shed more than light load.
        let shed_at = |load: f64| {
            r.cells
                .iter()
                .find(|c| c.servers == 4 && c.load == load)
                .map(|c| c.result.shed)
                .expect("cell")
        };
        assert!(shed_at(LOADS[2]) > shed_at(LOADS[0]));
    }
}
