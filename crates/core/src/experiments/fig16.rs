//! Fig. 16: scaling beyond two kernels — Personal Info Redaction
//! extended with a BERT NER kernel (three kernels, two restructuring
//! edges).

use super::{breakdown_fractions, Suite};
use crate::apps::BenchmarkId;
use crate::params::APP_COUNTS;
use crate::placement::{Mode, Placement};
use crate::report::{pct, ratio, Table};
use crate::system::{simulate, SystemConfig};

/// One concurrency point.
#[derive(Debug, Clone, Copy)]
pub struct Fig16Row {
    /// Concurrent applications.
    pub n: usize,
    /// Baseline (kernel, restructure, movement) fractions.
    pub baseline: (f64, f64, f64),
    /// DMX fractions.
    pub dmx: (f64, f64, f64),
    /// End-to-end speedup.
    pub speedup: f64,
}

/// Full Fig. 16 results.
#[derive(Debug, Clone)]
pub struct Fig16 {
    /// One row per concurrency level.
    pub rows: Vec<Fig16Row>,
}

/// Runs the experiment once per suite; later calls return a copy of
/// the first result.
pub fn run(suite: &Suite) -> Fig16 {
    suite.memo.fig16.get_or_init(compute).clone()
}

/// Runs the experiment.
fn compute() -> Fig16 {
    let bench = BenchmarkId::PirWithNer.build();
    let rows = APP_COUNTS
        .iter()
        .map(|&n| {
            let apps: Vec<_> = (0..n).map(|_| bench.clone()).collect();
            let base = simulate(&SystemConfig::latency(Mode::MultiAxl, apps.clone()));
            let dmx = simulate(&SystemConfig::latency(
                Mode::Dmx(Placement::BumpInTheWire),
                apps,
            ));
            Fig16Row {
                n,
                baseline: breakdown_fractions(std::slice::from_ref(&base)),
                dmx: breakdown_fractions(std::slice::from_ref(&dmx)),
                speedup: base.mean_latency().as_secs_f64() / dmx.mean_latency().as_secs_f64(),
            }
        })
        .collect();
    Fig16 { rows }
}

impl Fig16 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "apps".into(),
            "base K/R/M".into(),
            "DMX K/R/M".into(),
            "speedup".into(),
        ]);
        for r in &self.rows {
            t.row(vec![
                r.n.to_string(),
                format!(
                    "{} / {} / {}",
                    pct(r.baseline.0),
                    pct(r.baseline.1),
                    pct(r.baseline.2)
                ),
                format!("{} / {} / {}", pct(r.dmx.0), pct(r.dmx.1), pct(r.dmx.2)),
                ratio(r.speedup),
            ]);
        }
        format!(
            "Fig. 16 — three-kernel chain: PIR + BERT NER\n\
             (paper: 1.9x-4.2x speedup; with DMX the kernels are\n\
             93.7-97.2% of runtime, data motion <5%)\n\n{}",
            t.render()
        )
    }
}
