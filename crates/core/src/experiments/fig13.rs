//! Fig. 13: throughput improvement under continuous request arrival.
//! "The throughput of an application is determined by the latency of
//! the slowest stage" — for the baseline that stage is CPU
//! restructuring; DMX shifts the bottleneck back to the kernels.

use super::{ratio_geomean, Suite};
use crate::params::APP_COUNTS;
use crate::placement::{Mode, Placement};
use crate::report::{ratio, Table};
use crate::system::{simulate, SystemConfig};
use dmx_sim::par_map;

/// One concurrency point.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Concurrent applications.
    pub n: usize,
    /// `(benchmark, throughput improvement)`.
    pub per_benchmark: Vec<(&'static str, f64)>,
    /// Geometric mean improvement.
    pub geomean: f64,
}

/// Full Fig. 13 results.
#[derive(Debug, Clone)]
pub struct Fig13 {
    /// One row per concurrency level.
    pub rows: Vec<Fig13Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig13 {
    suite.memo.fig13.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig13 {
    let rows = APP_COUNTS
        .iter()
        .map(|&n| {
            let mut per_benchmark = Vec::new();
            if n == 1 {
                per_benchmark = par_map(suite.benchmarks(), |_, b| {
                    let base = simulate(&SystemConfig::throughput(Mode::MultiAxl, vec![b.clone()]));
                    let dmx = simulate(&SystemConfig::throughput(
                        Mode::Dmx(Placement::BumpInTheWire),
                        vec![b.clone()],
                    ));
                    (b.name, dmx.total_throughput() / base.total_throughput())
                });
            } else {
                let base = simulate(&SystemConfig::throughput(Mode::MultiAxl, suite.mix(n)));
                let dmx = simulate(&SystemConfig::throughput(
                    Mode::Dmx(Placement::BumpInTheWire),
                    suite.mix(n),
                ));
                for b in suite.benchmarks() {
                    let tp = |r: &crate::system::RunResult| {
                        r.apps
                            .iter()
                            .filter(|a| a.name == b.name)
                            .map(|a| a.throughput_rps)
                            .sum::<f64>()
                    };
                    per_benchmark.push((b.name, tp(&dmx) / tp(&base)));
                }
            }
            let geomean = ratio_geomean(per_benchmark.iter().map(|(_, s)| *s));
            Fig13Row {
                n,
                per_benchmark,
                geomean,
            }
        })
        .collect();
    Fig13 { rows }
}

impl Fig13 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut header = vec!["benchmark".to_string()];
        header.extend(self.rows.iter().map(|r| format!("{} apps", r.n)));
        let mut t = Table::new(header);
        for (i, (name, _)) in self.rows[0].per_benchmark.iter().enumerate() {
            let mut cells = vec![name.to_string()];
            cells.extend(self.rows.iter().map(|r| ratio(r.per_benchmark[i].1)));
            t.row(cells);
        }
        let mut cells = vec!["geomean".to_string()];
        cells.extend(self.rows.iter().map(|r| ratio(r.geomean)));
        t.row(cells);
        format!(
            "Fig. 13 — throughput improvement: DMX vs Multi-Axl\n\
             (paper average: 3.0x at 1 app rising to 13.6x at 15)\n\n{}",
            t.render()
        )
    }
}
