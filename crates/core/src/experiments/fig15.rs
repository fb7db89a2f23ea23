//! Fig. 15: system-wide energy reduction per DRX placement.
//! (PCIe-Integrated is excluded, as in the paper: "because of the
//! difficulty of estimating the energy consumption of a PCIe switch
//! integrated with DRX".)

use super::Suite;
use crate::params::APP_COUNTS;
use crate::placement::{Mode, Placement};
use crate::report::{ratio, Table};
use crate::system::{simulate, SystemConfig};

/// The placements the paper evaluates for energy.
pub const ENERGY_PLACEMENTS: [Placement; 3] = [
    Placement::Integrated,
    Placement::Standalone,
    Placement::BumpInTheWire,
];

/// One concurrency point: energy reduction per placement.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Concurrent applications.
    pub n: usize,
    /// `(placement, baseline_energy / placement_energy)`.
    pub reductions: Vec<(Placement, f64)>,
}

/// Full Fig. 15 results.
#[derive(Debug, Clone)]
pub struct Fig15 {
    /// One row per concurrency level.
    pub rows: Vec<Fig15Row>,
}

fn energy_for(suite: &Suite, mode: Mode, n: usize) -> f64 {
    if n == 1 {
        suite
            .benchmarks()
            .iter()
            .map(|b| {
                simulate(&SystemConfig::latency(mode, vec![b.clone()]))
                    .energy
                    .total()
            })
            .sum()
    } else {
        simulate(&SystemConfig::latency(mode, suite.mix(n)))
            .energy
            .total()
    }
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig15 {
    suite.memo.fig15.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig15 {
    let rows = APP_COUNTS
        .iter()
        .map(|&n| {
            let base = energy_for(suite, Mode::MultiAxl, n);
            let reductions = ENERGY_PLACEMENTS
                .iter()
                .map(|&p| (p, base / energy_for(suite, Mode::Dmx(p), n)))
                .collect();
            Fig15Row { n, reductions }
        })
        .collect();
    Fig15 { rows }
}

impl Fig15 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut header = vec!["apps".to_string()];
        header.extend(ENERGY_PLACEMENTS.iter().map(|p| p.name().to_string()));
        let mut t = Table::new(header);
        for r in &self.rows {
            let mut cells = vec![r.n.to_string()];
            cells.extend(r.reductions.iter().map(|(_, s)| ratio(*s)));
            t.row(cells);
        }
        format!(
            "Fig. 15 — system energy reduction vs Multi-Axl\n\
             (paper: Integrated flat ~3.4-4.0x; Bump-in-the-Wire best at\n\
             1-5 apps; Standalone best at 10-15 apps because the per-unit\n\
             glue/mux power of bump-in-the-wire replicates per accelerator)\n\n{}",
            t.render()
        )
    }
}
