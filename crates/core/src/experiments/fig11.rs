//! Fig. 11: end-to-end speedup of DMX (bump-in-the-wire) over the
//! Multi-Axl baseline, per benchmark, for 1–15 concurrent apps.

use super::Suite;
use crate::params::APP_COUNTS;
use crate::placement::{Mode, Placement};
use crate::report::{ratio, Table};

/// Speedups at one concurrency level.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    /// Concurrent applications.
    pub n: usize,
    /// `(benchmark, speedup)` pairs.
    pub per_benchmark: Vec<(&'static str, f64)>,
    /// Geometric mean.
    pub geomean: f64,
}

/// Full Fig. 11 results.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// One row per concurrency level.
    pub rows: Vec<Fig11Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig11 {
    suite.memo.fig11.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig11 {
    let rows = APP_COUNTS
        .iter()
        .map(|&n| {
            let (per_benchmark, geomean) =
                suite.latency_ratios(Mode::MultiAxl, Mode::Dmx(Placement::BumpInTheWire), n);
            Fig11Row {
                n,
                per_benchmark,
                geomean,
            }
        })
        .collect();
    Fig11 { rows }
}

impl Fig11 {
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
            "Fig. 11 — end-to-end speedup: DMX (bump-in-the-wire) vs Multi-Axl\n\
             (paper average: 3.5x at 1 app rising to 8.2x at 15)\n\n{}",
            t.render()
        )
    }
}
