//! Fig. 17: one-to-many (broadcast) and many-to-one (all-reduce)
//! speedups on 4–32 accelerators.

use super::Suite;
use crate::collectives::{all_reduce, broadcast, CollectiveConfig};
use crate::report::{ratio, Table};

/// Accelerator counts the paper sweeps.
pub const ACCEL_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig17Row {
    /// Participating accelerators.
    pub accels: usize,
    /// Broadcast speedup.
    pub broadcast: f64,
    /// All-reduce speedup.
    pub all_reduce: f64,
}

/// Full Fig. 17 results.
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// One row per accelerator count.
    pub rows: Vec<Fig17Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig17 {
    suite.memo.fig17.get_or_init(compute).clone()
}

/// Runs the experiment.
fn compute() -> Fig17 {
    let rows = ACCEL_COUNTS
        .iter()
        .map(|&accels| {
            let cfg = CollectiveConfig::fig17(accels);
            Fig17Row {
                accels,
                broadcast: broadcast(&cfg).speedup(),
                all_reduce: all_reduce(&cfg).speedup(),
            }
        })
        .collect();
    Fig17 { rows }
}

impl Fig17 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "accelerators".into(),
            "broadcast".into(),
            "all-reduce".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.accels.to_string(),
                ratio(r.broadcast),
                ratio(r.all_reduce),
            ]);
        }
        format!(
            "Fig. 17 — collective data movement speedup, DMX vs baseline\n\
             (paper: broadcast 3.7-5.2x, all-reduce 5.1-10.5x; a dip\n\
             appears at >=16 accelerators from cross-switch hops)\n\n{}",
            t.render()
        )
    }
}
