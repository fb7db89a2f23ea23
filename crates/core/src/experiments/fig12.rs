//! Fig. 12: runtime breakdown of Multi-Axl (a) and DMX (b) across
//! concurrency levels.

use super::{breakdown_fractions, Suite};
use crate::params::APP_COUNTS;
use crate::placement::{Mode, Placement};
use crate::report::{pct, Table};

/// One concurrency point.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Row {
    /// Concurrent applications.
    pub n: usize,
    /// Multi-Axl (kernel, restructure, movement) fractions.
    pub baseline: (f64, f64, f64),
    /// DMX fractions.
    pub dmx: (f64, f64, f64),
}

/// Full Fig. 12 results.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// One row per concurrency level.
    pub rows: Vec<Fig12Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig12 {
    suite.memo.fig12.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig12 {
    let rows = APP_COUNTS
        .iter()
        .map(|&n| Fig12Row {
            n,
            baseline: breakdown_fractions(&suite.breakdown_runs(Mode::MultiAxl, n)),
            dmx: breakdown_fractions(&suite.breakdown_runs(Mode::Dmx(Placement::BumpInTheWire), n)),
        })
        .collect();
    Fig12 { rows }
}

impl Fig12 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "apps".into(),
            "Multi-Axl K".into(),
            "R".into(),
            "M".into(),
            "DMX K".into(),
            "R".into(),
            "M".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                pct(r.baseline.0),
                pct(r.baseline.1),
                pct(r.baseline.2),
                pct(r.dmx.0),
                pct(r.dmx.1),
                pct(r.dmx.2),
            ]);
        }
        format!(
            "Fig. 12 — runtime breakdown, Multi-Axl (a) vs DMX (b)\n\
             (paper: baseline restructuring 66.8/55.7/64.7/71.7%,\n\
             DMX restructuring 17.0/15.3/13.5/7.2% for 1/5/10/15 apps)\n\n{}",
            t.render()
        )
    }
}
