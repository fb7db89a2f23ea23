//! Fig. 18: sensitivity to the number of RE lanes (32–256). The paper
//! finds diminishing returns past 128 lanes — the DDR4 channel becomes
//! the bottleneck — and fixes 128 as the default.

use super::{ratio_geomean, Suite};
use crate::placement::{Mode, Placement};
use crate::report::{ratio, Table};
use crate::system::{simulate, SystemConfig};
use dmx_drx::DrxConfig;
use dmx_sim::par_map;

/// Lane counts swept.
pub const LANE_COUNTS: [u32; 4] = [32, 64, 128, 256];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig18Row {
    /// RE lanes.
    pub lanes: u32,
    /// Geomean speedup over Multi-Axl at 5 concurrent apps.
    pub speedup: f64,
}

/// Full Fig. 18 results.
#[derive(Debug, Clone)]
pub struct Fig18 {
    /// One row per lane count.
    pub rows: Vec<Fig18Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
///
/// The sweep uses the FPGA clock (250 MHz), the paper's synthesized
/// prototype: there the RE array is the bottleneck below 128 lanes and
/// the DDR4 channel takes over beyond it. (At the 1 GHz ASIC clock the
/// DMA engine dominates at every lane count and the sweep is flat.)
pub fn run(suite: &Suite) -> Fig18 {
    suite.memo.fig18.get_or_init(|| compute(suite)).clone()
}

/// Runs the experiment.
fn compute(suite: &Suite) -> Fig18 {
    let n = 5;
    let base = simulate(&SystemConfig::latency(Mode::MultiAxl, suite.mix(n)));
    let rows = par_map(&LANE_COUNTS, |_, &lanes| {
        let mut cfg = SystemConfig::latency(Mode::Dmx(Placement::BumpInTheWire), suite.mix(n));
        cfg.drx = DrxConfig::fpga().with_lanes(lanes);
        let dmx = simulate(&cfg);
        let per = suite.benchmarks().iter().map(|b| {
            let mean = |r: &crate::system::RunResult| {
                let xs: Vec<f64> = r
                    .apps
                    .iter()
                    .filter(|a| a.name == b.name)
                    .map(|a| a.latency.as_secs_f64())
                    .collect();
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            mean(&base) / mean(&dmx)
        });
        Fig18Row {
            lanes,
            speedup: ratio_geomean(per),
        }
    });
    Fig18 { rows }
}

impl Fig18 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["RE lanes".into(), "speedup vs Multi-Axl".into()]);
        for r in &self.rows {
            t.row(vec![r.lanes.to_string(), ratio(r.speedup)]);
        }
        format!(
            "Fig. 18 — RE lane sweep (5 concurrent apps, FPGA prototype clock)\n\
             (paper: improves up to 128 lanes, then flattens — the DDR4\n\
             channel bounds further gains; 128 is the default)\n\n{}",
            t.render()
        )
    }
}
