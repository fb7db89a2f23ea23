//! Fig. 3: the motivation experiment. (a) runtime breakdown of All-CPU
//! and Multi-Axl for 1–15 concurrent applications; (b) the end-to-end
//! speedup of Multi-Axl over All-CPU, contrasted with the 6.5x
//! per-kernel geomean — data motion swallows the kernel gains.

use super::{breakdown_fractions, Suite};
use crate::params::APP_COUNTS;
use crate::placement::Mode;
use crate::report::{pct, ratio, Table};

/// One concurrency point.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Row {
    /// Concurrent applications.
    pub n: usize,
    /// All-CPU (kernel, restructure, movement) fractions.
    pub all_cpu: (f64, f64, f64),
    /// Multi-Axl fractions.
    pub multi_axl: (f64, f64, f64),
    /// End-to-end speedup of Multi-Axl over All-CPU (geomean).
    pub e2e_speedup: f64,
}

/// Full Fig. 3 results.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// One row per concurrency level.
    pub rows: Vec<Fig3Row>,
    /// Per-accelerator kernel speedup geomean (the 6.5x reference).
    pub kernel_geomean: f64,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig3 {
    suite.memo.fig3.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig3 {
    let rows = APP_COUNTS
        .iter()
        .map(|&n| {
            let all_cpu = breakdown_fractions(&suite.breakdown_runs(Mode::AllCpu, n));
            let multi_axl = breakdown_fractions(&suite.breakdown_runs(Mode::MultiAxl, n));
            let (_, g) = suite.latency_ratios(Mode::AllCpu, Mode::MultiAxl, n);
            Fig3Row {
                n,
                all_cpu,
                multi_axl,
                e2e_speedup: g,
            }
        })
        .collect();
    Fig3 {
        rows,
        kernel_geomean: dmx_accel::catalog_speedup_geomean(),
    }
}

impl Fig3 {
    /// Renders the figure as text tables.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "apps".into(),
            "All-CPU K/R/M".into(),
            "Multi-Axl K/R/M".into(),
            "e2e speedup".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                format!(
                    "{} / {} / {}",
                    pct(r.all_cpu.0),
                    pct(r.all_cpu.1),
                    pct(r.all_cpu.2)
                ),
                format!(
                    "{} / {} / {}",
                    pct(r.multi_axl.0),
                    pct(r.multi_axl.1),
                    pct(r.multi_axl.2)
                ),
                ratio(r.e2e_speedup),
            ]);
        }
        format!(
            "Fig. 3 — data motion overhead (K=kernel, R=restructuring, M=movement)\n\
             per-kernel accelerator speedup geomean: {} (paper: 6.5x)\n\n{}",
            ratio(self.kernel_geomean),
            t.render()
        )
    }
}
