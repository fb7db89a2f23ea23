//! Experiment runners: one module per table/figure of the paper's
//! evaluation, plus ablations. Each `run()` is deterministic and
//! returns both the numbers (for tests) and a rendered table (for the
//! `repro` binary and EXPERIMENTS.md).

pub mod ablations;
pub mod chaos;
pub mod failover;
pub mod failslow;
pub mod faults;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig3;
pub mod fig5;
pub mod fig8;
pub mod fleet;
pub mod integrity;
pub mod overload;
pub mod summary;
pub mod tab1;

use crate::apps::{BenchmarkId, BenchmarkRef};
use crate::placement::Mode;
use crate::system::{simulate, RunResult, SystemConfig};
use dmx_sim::{geomean, par_map};
use std::sync::OnceLock;

/// Geometric mean of per-benchmark speedup/slowdown ratios.
///
/// Every experiment reports its aggregate this way; ratios are always
/// positive for a working simulation, so a non-positive value is a bug
/// worth panicking over.
///
/// # Panics
///
/// Panics when `ratios` is empty or contains a non-positive value.
pub fn ratio_geomean(ratios: impl IntoIterator<Item = f64>) -> f64 {
    geomean(&ratios.into_iter().collect::<Vec<_>>()).expect("positive ratios")
}

/// The shared benchmark suite: the five Table I applications built
/// once, so DRX cost measurements are cached across experiments, plus
/// one memo slot per figure the `summary` claims read.
///
/// The memo contract: a slot holds a figure that is a pure function of
/// the suite (fig3, fig5, fig11–fig18), computed by the first
/// `figN::run` on this suite and copied out to every later call, so
/// `repro all` computes each figure once although `summary` reads ten
/// of them again. Seeded experiments (faults, overload, integrity,
/// chaos, failslow, fleet, failover) are never memoized. A check that
/// compares two runs of a memoized figure must give each run its own
/// `Suite`, or it compares a result with its own copy.
#[derive(Debug)]
pub struct Suite {
    benchmarks: Vec<BenchmarkRef>,
    memo: Memo,
}

/// One memo slot per figure the `summary` claims read.
#[derive(Debug, Default)]
struct Memo {
    fig3: OnceLock<fig3::Fig3>,
    fig5: OnceLock<fig5::Fig5>,
    fig11: OnceLock<fig11::Fig11>,
    fig12: OnceLock<fig12::Fig12>,
    fig13: OnceLock<fig13::Fig13>,
    fig14: OnceLock<fig14::Fig14>,
    fig15: OnceLock<fig15::Fig15>,
    fig16: OnceLock<fig16::Fig16>,
    fig17: OnceLock<fig17::Fig17>,
    fig18: OnceLock<fig18::Fig18>,
}

impl Default for Suite {
    fn default() -> Self {
        Self::new()
    }
}

impl Suite {
    /// Builds the five benchmarks and measures every edge's DRX cost
    /// for the default engine configuration up front. No figure is
    /// computed here; each memo slot fills on its figure's first run.
    ///
    /// The cost cache is shared across experiments; without the warmup
    /// the first experiment to simulate a DMX mode pays the full DRX
    /// compile+execute measurement inside its own timed region, which
    /// is how fig11 once reported 6x fewer events/sec than fig12 on an
    /// identical run.
    pub fn new() -> Suite {
        let benchmarks: Vec<BenchmarkRef> = BenchmarkId::FIVE.iter().map(|id| id.build()).collect();
        let drx = dmx_drx::DrxConfig::default();
        par_map(&benchmarks, |_, b| {
            for e in &b.edges {
                e.drx_cost(&drx);
            }
        });
        Suite {
            benchmarks,
            memo: Memo::default(),
        }
    }

    /// The five benchmarks.
    pub fn benchmarks(&self) -> &[BenchmarkRef] {
        &self.benchmarks
    }

    /// A balanced mix of `n` concurrent applications: `n/5` copies of
    /// each benchmark (plus the first `n % 5` benchmarks once more).
    pub fn mix(&self, n: usize) -> Vec<BenchmarkRef> {
        (0..n).map(|i| self.benchmarks[i % 5].clone()).collect()
    }

    /// Per-benchmark latency comparison of two modes at concurrency
    /// `n`. For `n == 1` each benchmark runs alone; otherwise both
    /// modes run the same balanced mix and copies of a benchmark are
    /// averaged. Returns `(name, ratio_a_over_b)` per benchmark plus
    /// the geometric mean.
    pub fn latency_ratios(&self, a: Mode, b: Mode, n: usize) -> (Vec<(&'static str, f64)>, f64) {
        let out: Vec<(&'static str, f64)> = if n == 1 {
            par_map(&self.benchmarks, |_, bench| {
                let ra = simulate(&SystemConfig::latency(a, vec![bench.clone()]));
                let rb = simulate(&SystemConfig::latency(b, vec![bench.clone()]));
                (
                    bench.name,
                    ra.mean_latency().as_secs_f64() / rb.mean_latency().as_secs_f64(),
                )
            })
        } else {
            let rs = par_map(&[a, b], |_, &m| {
                simulate(&SystemConfig::latency(m, self.mix(n)))
            });
            let (ra, rb) = (&rs[0], &rs[1]);
            self.benchmarks
                .iter()
                .map(|bench| {
                    let mean = |r: &RunResult| {
                        let xs: Vec<f64> = r
                            .apps
                            .iter()
                            .filter(|x| x.name == bench.name)
                            .map(|x| x.latency.as_secs_f64())
                            .collect();
                        xs.iter().sum::<f64>() / xs.len() as f64
                    };
                    (bench.name, mean(ra) / mean(rb))
                })
                .collect()
        };
        let g = ratio_geomean(out.iter().map(|(_, s)| *s));
        (out, g)
    }

    /// Runs a mode at concurrency `n` in latency mode, averaging the
    /// per-benchmark breakdowns (for `n == 1`, each benchmark alone).
    pub fn breakdown_runs(&self, mode: Mode, n: usize) -> Vec<RunResult> {
        if n == 1 {
            par_map(&self.benchmarks, |_, b| {
                simulate(&SystemConfig::latency(mode, vec![b.clone()]))
            })
        } else {
            vec![simulate(&SystemConfig::latency(mode, self.mix(n)))]
        }
    }
}

/// Mean breakdown fractions (kernel, restructure, movement) across runs.
pub fn breakdown_fractions(runs: &[RunResult]) -> (f64, f64, f64) {
    let mut k = 0.0;
    let mut r = 0.0;
    let mut m = 0.0;
    let mut n = 0.0;
    for run in runs {
        for a in &run.apps {
            let t = a.breakdown.total().as_secs_f64().max(1e-12);
            k += a.breakdown.kernel.as_secs_f64() / t;
            r += a.breakdown.restructure.as_secs_f64() / t;
            m += a.breakdown.movement.as_secs_f64() / t;
            n += 1.0;
        }
    }
    (k / n, r / n, m / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::Placement;

    #[test]
    fn suite_mixes_are_balanced() {
        let suite = Suite::new();
        let mix = suite.mix(10);
        assert_eq!(mix.len(), 10);
        let sd = mix.iter().filter(|b| b.name == "Sound Detection").count();
        assert_eq!(sd, 2);
    }

    #[test]
    fn latency_ratios_positive() {
        let suite = Suite::new();
        let (per, g) = suite.latency_ratios(Mode::MultiAxl, Mode::Dmx(Placement::BumpInTheWire), 1);
        assert_eq!(per.len(), 5);
        assert!(g > 1.0, "DMX should win: geomean {g}");
        for (name, s) in per {
            assert!(s > 1.0, "{name}: {s}");
        }
    }
}
