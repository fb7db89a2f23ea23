//! Overload sweep: open-loop multi-tenant load against one server.
//!
//! Not a figure from the paper — a robustness study of the reproduced
//! system. Five tenants (one per Table I benchmark) offer open-loop
//! load at 0.5x through 2.0x of the server's measured capacity; tenant
//! 0 arrives in Markov-modulated bursts, the rest are Poisson. The
//! driver admits through per-tenant token buckets, dispatches pending
//! work earliest-deadline-first from a bounded queue, and sheds
//! requests whose deadline already passed.
//!
//! The run embeds its own acceptance checks, re-verified on every
//! `repro overload` invocation:
//!
//! * the pending queue never exceeds its configured bound;
//! * 2x load sheds (an open loop cannot absorb sustained overload);
//! * p99 goodput latency at 2x stays within 10x of the 0.5x p99
//!   (shedding keeps the latency of *served* work bounded);
//! * two same-seed runs render byte-identically;
//! * an inert overload config reproduces the layer-absent run
//!   bit-identically (the zero-overhead path).

use super::Suite;
use crate::overload::{AdmissionParams, OverloadConfig, OverloadReport, ShedPolicy};
use crate::placement::{Mode, Placement};
use crate::report::{ms, pct, Table};
use crate::system::{simulate, SystemConfig};
use dmx_sim::{par_map, ArrivalProcess, Time};

/// Default seed for every run in this experiment.
pub const SEED: u64 = 0x10AD;

/// Offered load multiples of measured capacity.
pub const LOADS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

/// Concurrent tenants per run.
const TENANTS: usize = 5;

/// Arrivals each tenant offers per run.
const ARRIVALS_PER_TENANT: usize = 24;

/// Pending-queue bound (requests).
const QUEUE_CAPACITY: usize = 8;

/// One point of the load sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load as a multiple of measured capacity.
    pub load: f64,
    /// Worst per-tenant p99 goodput latency at this load.
    pub worst_p99: Time,
    /// Full per-tenant accounting.
    pub report: OverloadReport,
}

/// The embedded acceptance checks.
#[derive(Debug, Clone)]
pub struct Checks {
    /// Pending-queue peak stayed within the bound at every load.
    pub bounded_queues: bool,
    /// 2x load shed a nonzero fraction of arrivals.
    pub sheds_at_overload: bool,
    /// Worst p99 at 2x is within 10x of the worst p99 at 0.5x.
    pub p99_bounded: bool,
    /// Two same-seed 2x runs rendered byte-identically.
    pub deterministic: bool,
    /// An inert overload config reproduced the layer-absent run.
    pub inert_identity: bool,
}

impl Checks {
    /// True when every check passed.
    pub fn all(&self) -> bool {
        self.bounded_queues
            && self.sheds_at_overload
            && self.p99_bounded
            && self.deterministic
            && self.inert_identity
    }
}

/// Full overload-sweep results.
#[derive(Debug, Clone)]
pub struct Overload {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// Measured capacity calibration: clean cross-tenant mean latency.
    pub clean_mean: Time,
    /// One point per entry of [`LOADS`].
    pub points: Vec<LoadPoint>,
    /// The embedded acceptance checks.
    pub checks: Checks,
}

/// Open-loop config offering `load` times the server's capacity, whose
/// clean per-request latency (closed-loop, all tenants running) is
/// `mean`/`slowest`. Each tenant's fair share of service capacity is
/// ~1/mean; tenant 0 bursts (MMPP), the rest are Poisson. The deadline
/// is `deadline_x` times the slowest tenant's clean latency, so an
/// uncontended request always fits regardless of its app. Shared by
/// the chaos and fail-slow sweeps, so their differences from this one
/// are attributable to their own layers.
pub(crate) fn open_loop(
    seed: u64,
    mean: Time,
    slowest: Time,
    load: f64,
    deadline_x: u64,
) -> OverloadConfig {
    let share_rps = 1.0 / mean.as_secs_f64();
    let rate = load * share_rps;
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
        deadline: slowest * deadline_x,
        shed: ShedPolicy::Reject,
        queue_capacity: QUEUE_CAPACITY,
        ..OverloadConfig::none()
    }
}

fn sweep_cfg(suite: &Suite, overload: Option<OverloadConfig>) -> SystemConfig {
    SystemConfig {
        requests_per_app: ARRIVALS_PER_TENANT,
        overload,
        ..SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(TENANTS))
    }
}

fn worst_p99(r: &OverloadReport) -> Time {
    r.tenants
        .iter()
        .map(|t| t.goodput_p99)
        .max()
        .unwrap_or(Time::ZERO)
}

/// Runs the sweep under the default [`SEED`].
pub fn run(suite: &Suite) -> Overload {
    run_with_seed(suite, SEED)
}

/// Runs the sweep under an explicit seed.
pub fn run_with_seed(suite: &Suite, seed: u64) -> Overload {
    // Capacity calibration: the clean closed-loop run, which is also
    // the baseline for the inert-identity check.
    let clean_cfg = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(TENANTS));
    let clean = simulate(&clean_cfg);
    let mean = clean.mean_latency();
    let slowest = clean.apps.iter().map(|a| a.latency).max().expect("apps");

    // The load points only depend on the calibration above, so they
    // fan out across the worker pool.
    let points: Vec<LoadPoint> = par_map(&LOADS, |_, &load| {
        let r = simulate(&sweep_cfg(
            suite,
            Some(open_loop(seed, mean, slowest, load, 4)),
        ));
        let report = r.overload.expect("open-loop run must report");
        LoadPoint {
            load,
            worst_p99: worst_p99(&report),
            report,
        }
    });

    let bounded_queues = points.iter().all(|p| p.report.queue_peak <= QUEUE_CAPACITY);
    let last = points.last().expect("loads");
    let first = points.first().expect("loads");
    let sheds_at_overload = last.report.shed_rate() > 0.0;
    let p99_bounded = first.worst_p99 > Time::ZERO
        && last.worst_p99.as_secs_f64() <= 10.0 * first.worst_p99.as_secs_f64();

    // Same-seed determinism at the highest load, re-simulated from
    // scratch: the Debug render covers every counter and latency.
    let again = simulate(&sweep_cfg(
        suite,
        Some(open_loop(seed, mean, slowest, 2.0, 4)),
    ));
    let deterministic = format!("{:?}", again.overload) == format!("{:?}", Some(&last.report));

    // The zero-overhead path: an inert config must be byte-identical
    // to running with no overload layer at all.
    let inert = simulate(&SystemConfig {
        overload: Some(OverloadConfig::none()),
        ..clean_cfg.clone()
    });
    let inert_identity = format!("{clean:?}") == format!("{inert:?}");

    Overload {
        seed,
        clean_mean: mean,
        points,
        checks: Checks {
            bounded_queues,
            sheds_at_overload,
            p99_bounded,
            deterministic,
            inert_identity,
        },
    }
}

impl Overload {
    /// True when every embedded acceptance check passed.
    pub fn ok(&self) -> bool {
        self.checks.all()
    }

    /// Renders the report.
    pub fn render(&self) -> String {
        let mut sweep = Table::new(
            [
                "load",
                "offered",
                "goodput",
                "shed",
                "late",
                "q.peak",
                "q.mean",
                "wait",
                "worst p99",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for p in &self.points {
            let r = &p.report;
            let late: u64 = r.tenants.iter().map(|t| t.late).sum();
            sweep.row(vec![
                format!("{:.1}x", p.load),
                r.offered().to_string(),
                r.goodput().to_string(),
                format!("{} ({})", r.shed(), pct(r.shed_rate())),
                late.to_string(),
                r.queue_peak.to_string(),
                format!("{:.2}", r.queue_mean),
                ms(r.queue_wait_mean),
                ms(p.worst_p99),
            ]);
        }

        let peak = self.points.last().expect("loads");
        let mut tenants = Table::new(
            [
                "tenant", "offered", "admitted", "goodput", "shed", "p50", "p99", "p999", "breaker",
            ]
            .map(str::to_string)
            .to_vec(),
        );
        for t in &peak.report.tenants {
            tenants.row(vec![
                t.name.to_string(),
                t.offered.to_string(),
                t.admitted.to_string(),
                t.goodput.to_string(),
                format!(
                    "{} ({})",
                    t.rejected_admission + t.rejected_queue_full + t.shed_deadline,
                    pct(t.shed_rate())
                ),
                ms(t.goodput_p50),
                ms(t.goodput_p99),
                ms(t.goodput_p999),
                t.breaker_activations.to_string(),
            ]);
        }

        let yn = |b: bool| if b { "yes" } else { "NO (BUG)" };
        let c = &self.checks;
        format!(
            "repro overload — open-loop load sweep (seed {seed:#x})\n\
             Five tenants offer load at multiples of measured capacity\n\
             (clean mean latency {mean}); tenant 0 bursts (MMPP), the\n\
             rest are Poisson. Queue bound {cap}, deadline 4x slowest\n\
             clean latency, token-bucket admission at 1.3x offered.\n\n\
             {sweep}\n\
             Per-tenant accounting at {load:.1}x load:\n\n{tenants}\n\
             checks:\n\
             queues stayed within bound           {q}\n\
             2.0x load shed                       {s}\n\
             p99(2.0x) within 10x of p99(0.5x)    {p}\n\
             same-seed runs byte-identical        {d}\n\
             inert config identical to no layer   {i}\n",
            seed = self.seed,
            mean = ms(self.clean_mean),
            cap = QUEUE_CAPACITY,
            sweep = sweep.render(),
            load = peak.load,
            tenants = tenants.render(),
            q = yn(c.bounded_queues),
            s = yn(c.sheds_at_overload),
            p = yn(c.p99_bounded),
            d = yn(c.deterministic),
            i = yn(c.inert_identity),
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
        assert_eq!(a.points.len(), LOADS.len());
        // Goodput cannot exceed offered load anywhere on the sweep.
        for p in &a.points {
            assert!(p.report.goodput() <= p.report.offered());
            assert!(p.report.goodput() > 0, "{}x produced no goodput", p.load);
        }
        let b = run(&suite);
        assert_eq!(a.render(), b.render(), "same seed must be byte-identical");
        // A different seed draws different arrivals.
        let c = run_with_seed(&suite, SEED + 1);
        assert!(c.ok(), "checks must hold under other seeds");
        assert_ne!(a.render(), c.render());
    }
}
