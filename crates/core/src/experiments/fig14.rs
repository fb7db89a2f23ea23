//! Fig. 14: latency speedup of the four DRX placements over Multi-Axl.
//! The paper's ordering: Integrated <= Standalone <= Bump-in-the-Wire
//! <= PCIe-Integrated.

use super::Suite;
use crate::params::APP_COUNTS;
use crate::placement::{Mode, Placement};
use crate::report::{ratio, Table};

/// One concurrency point: speedups for every placement.
#[derive(Debug, Clone)]
pub struct Fig14Row {
    /// Concurrent applications.
    pub n: usize,
    /// `(placement, geomean speedup)` in [`Placement::ALL`] order.
    pub speedups: Vec<(Placement, f64)>,
}

/// Full Fig. 14 results.
#[derive(Debug, Clone)]
pub struct Fig14 {
    /// One row per concurrency level.
    pub rows: Vec<Fig14Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig14 {
    suite.memo.fig14.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig14 {
    let rows = APP_COUNTS
        .iter()
        .map(|&n| {
            let speedups = Placement::ALL
                .iter()
                .map(|&p| {
                    let (_, g) = suite.latency_ratios(Mode::MultiAxl, Mode::Dmx(p), n);
                    (p, g)
                })
                .collect();
            Fig14Row { n, speedups }
        })
        .collect();
    Fig14 { rows }
}

impl Fig14 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut header = vec!["apps".to_string()];
        header.extend(Placement::ALL.iter().map(|p| p.name().to_string()));
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut cells = vec![r.n.to_string()];
            cells.extend(r.speedups.iter().map(|(_, s)| ratio(*s)));
            t.row(cells);
        }
        format!(
            "Fig. 14 — DRX placement speedups vs Multi-Axl (geomean)\n\
             (paper ordering: Integrated <= Standalone <= Bump-in-the-Wire\n\
             <= PCIe-Integrated; Integrated reaches 4.4x at 15 apps)\n\n{}",
            t.render()
        )
    }
}
