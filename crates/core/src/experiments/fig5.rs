//! Fig. 5: top-down characterization of the restructuring ops on the
//! host CPU, with the MPKI observations of Sec. IV.A.

use super::Suite;
use crate::report::{pct, Table};
use dmx_cpu::{characterize_op, CacheConfig, Characterization};

/// Per-op characterization results.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// One characterization per benchmark's (first) restructuring op.
    pub ops: Vec<Characterization>,
}

/// Characterizes one benchmark's (first) restructuring op. Uncached:
/// every call walks the op's full synthetic trace, so it is the unit
/// to time when measuring the cache model.
pub fn characterize_one(b: &crate::apps::Benchmark) -> Characterization {
    let cache = CacheConfig::default();
    let mut c = characterize_op(&b.edges[0].profile, &cache);
    c.name = format!("{} ({})", b.name, b.edges[0].profile.name);
    c
}

/// Runs the experiment once per suite; later calls (the `summary`
/// claims among them) return a copy of the first result. Each op's
/// cache/pipeline characterization is independent, so the
/// per-benchmark loop fans across the `dmx_sim::par` pool; results are
/// collected in input order, so the rendered table is byte-identical
/// for any `--threads N`.
pub fn run(suite: &Suite) -> Fig5 {
    suite
        .memo
        .fig5
        .get_or_init(|| Fig5 {
            ops: dmx_sim::par_map(suite.benchmarks(), |_, b| characterize_one(b)),
        })
        .clone()
}

impl Fig5 {
    /// Renders the figure.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "restructuring op".into(),
            "retire".into(),
            "bad-spec".into(),
            "front-end".into(),
            "BE-core".into(),
            "BE-mem".into(),
            "L1I MPKI".into(),
            "L1D MPKI".into(),
            "L2 MPKI".into(),
        ]);
        for c in &self.ops {
            t.row(vec![
                c.name.clone(),
                pct(c.topdown.retiring),
                pct(c.topdown.bad_speculation),
                pct(c.topdown.frontend),
                pct(c.topdown.backend_core),
                pct(c.topdown.backend_memory),
                format!("{:.1}", c.mpki.l1i_mpki),
                format!("{:.0}", c.mpki.l1d_mpki),
                format!("{:.0}", c.mpki.l2_mpki),
            ]);
        }
        format!(
            "Fig. 5 — top-down breakdown of data restructuring on the host CPU\n\
             (paper: back-end 53-77.6%, bad-spec <=12.5%, front-end <=14%,\n\
             L1I MPKI ~2.3, L1D MPKI 50-215, L2 MPKI 25-109)\n\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_cpu::MpkiReport;

    /// Every suite op's cache report, pinned bit for bit: the cache
    /// model's fast paths must not move a single miss.
    #[test]
    fn suite_op_reports_are_pinned() {
        let report = |instructions, l1i_mpki, l1d_mpki, l2_mpki| MpkiReport {
            l1i_mpki,
            l1d_mpki,
            l2_mpki,
            instructions,
        };
        #[rustfmt::skip]
        let want = [
            report(1_179_648, 1.7623901367187502, 169.16317409939236, 85.8154296875),
            report(1_179_648, 1.7564561631944446, 166.67344835069446, 83.34011501736111),
            report(1_179_648, 1.7564561631944446, 166.67344835069446, 83.34011501736111),
            report(2_097_152, 1.7228126525878906, 112.53595352172852, 65.28043746948242),
            report(3_670_016, 1.705169677734375, 64.23677716936383, 45.652662004743306),
        ];
        let suite = Suite::new();
        assert_eq!(suite.benchmarks().len(), want.len());
        for (b, want) in suite.benchmarks().iter().zip(want) {
            assert_eq!(characterize_one(b).mpki, want, "{}", b.name);
        }
    }
}
