//! Paper-vs-measured summary: one row per headline claim, with the
//! paper's number, this reproduction's number, and a PASS/DRIFT verdict
//! against a qualitative band. This is the table EXPERIMENTS.md embeds.

use super::{fig11, fig12, fig13, fig14, fig15, fig16, fig17, fig18, fig3, fig5, Suite};
use crate::placement::Placement;
use crate::report::Table;

/// One comparison row.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Which figure it comes from.
    pub figure: &'static str,
    /// What is measured.
    pub what: &'static str,
    /// The paper's value, as printed.
    pub paper: String,
    /// This reproduction's value.
    pub measured: String,
    /// Whether the measured value is inside the acceptance band.
    pub ok: bool,
}

/// The full summary.
#[derive(Debug, Clone)]
pub struct Summary {
    /// All claims.
    pub claims: Vec<Claim>,
}

/// Assembles the summary from the ten figures its claims read. Each
/// `figN::run` is memoized on `suite`, so after `repro all` has run the
/// figures this only reads them back; on a fresh suite it computes them
/// in turn, each figure's own sweep fanning across the `dmx_sim::par`
/// pool. The claims are assembled serially, so the rendered table is
/// byte-identical for any `--threads N`.
pub fn run(suite: &Suite) -> Summary {
    let mut claims = Vec::new();
    let mut push = |figure, what, paper: String, measured: String, ok: bool| {
        claims.push(Claim {
            figure,
            what,
            paper,
            measured,
            ok,
        });
    };

    let f3 = fig3::run(suite);
    let f5 = fig5::run(suite);
    let f11 = fig11::run(suite);
    let f12 = fig12::run(suite);
    let f13 = fig13::run(suite);
    let f14 = fig14::run(suite);
    let f15 = fig15::run(suite);
    let f16 = fig16::run(suite);
    let f17 = fig17::run(suite);
    let f18 = fig18::run(suite);
    push(
        "Fig.3",
        "Multi-Axl restructuring share @1 app",
        "57.7-73.2%".into(),
        format!("{:.1}%", 100.0 * f3.rows[0].multi_axl.1),
        f3.rows[0].multi_axl.1 > 0.5 && f3.rows[0].multi_axl.1 < 0.85,
    );
    push(
        "Fig.3",
        "per-kernel accelerator speedup geomean",
        "6.5x".into(),
        format!("{:.1}x", f3.kernel_geomean),
        (f3.kernel_geomean - 6.5).abs() < 1.0,
    );

    let be_min = f5
        .ops
        .iter()
        .map(|c| c.topdown.backend())
        .fold(f64::INFINITY, f64::min);
    let be_max = f5
        .ops
        .iter()
        .map(|c| c.topdown.backend())
        .fold(f64::NEG_INFINITY, f64::max);
    push(
        "Fig.5",
        "back-end-bound range across ops",
        "53-77.6%".into(),
        format!("{:.0}-{:.0}%", 100.0 * be_min, 100.0 * be_max),
        be_min > 0.45 && be_max < 0.9,
    );
    let l1i = f5.ops.iter().map(|c| c.mpki.l1i_mpki).sum::<f64>() / f5.ops.len() as f64;
    push(
        "Fig.5",
        "mean L1I MPKI (tiny instruction set)",
        "~2.3".into(),
        format!("{l1i:.1}"),
        l1i < 8.0,
    );

    push(
        "Fig.11",
        "end-to-end speedup geomean @1 app",
        "3.5x".into(),
        format!("{:.2}x", f11.rows[0].geomean),
        f11.rows[0].geomean > 2.0 && f11.rows[0].geomean < 5.0,
    );
    push(
        "Fig.11",
        "end-to-end speedup geomean @15 apps",
        "8.2x".into(),
        format!("{:.2}x", f11.rows[3].geomean),
        f11.rows[3].geomean > 5.5 && f11.rows[3].geomean < 11.0,
    );

    push(
        "Fig.12",
        "DMX restructuring share @1 app",
        "17.0%".into(),
        format!("{:.1}%", 100.0 * f12.rows[0].dmx.1),
        f12.rows[0].dmx.1 < 0.35,
    );

    push(
        "Fig.13",
        "throughput gain geomean @1 / @15 apps",
        "3.0x / 13.6x".into(),
        format!("{:.2}x / {:.2}x", f13.rows[0].geomean, f13.rows[3].geomean),
        f13.rows[0].geomean > 1.5 && f13.rows[3].geomean > 6.0,
    );

    let at15 = &f14.rows[3].speedups;
    let val = |p: Placement| at15.iter().find(|(q, _)| *q == p).expect("present").1;
    let ordered = val(Placement::Integrated) <= val(Placement::Standalone) * 1.02
        && val(Placement::Standalone) <= val(Placement::BumpInTheWire) * 1.02
        && val(Placement::BumpInTheWire) <= val(Placement::PcieIntegrated) * 1.02;
    push(
        "Fig.14",
        "placement ordering @15 apps",
        "Intg<=Stdl<=BitW<=PCIe".into(),
        format!(
            "{:.1}<={:.1}<={:.1}<={:.1}",
            val(Placement::Integrated),
            val(Placement::Standalone),
            val(Placement::BumpInTheWire),
            val(Placement::PcieIntegrated)
        ),
        ordered,
    );
    push(
        "Fig.14",
        "Integrated-DRX speedup @15 apps",
        "4.4x".into(),
        format!("{:.2}x", val(Placement::Integrated)),
        (val(Placement::Integrated) - 4.4).abs() < 1.5,
    );

    let red = |row: usize, p: Placement| {
        f15.rows[row]
            .reductions
            .iter()
            .find(|(q, _)| *q == p)
            .expect("present")
            .1
    };
    push(
        "Fig.15",
        "Standalone beats BitW energy @15 apps",
        "6.5x vs ~5.5x".into(),
        format!(
            "{:.2}x vs {:.2}x",
            red(3, Placement::Standalone),
            red(3, Placement::BumpInTheWire)
        ),
        red(3, Placement::Standalone) > red(3, Placement::BumpInTheWire),
    );

    push(
        "Fig.16",
        "PIR+NER speedup @1 -> @15 apps",
        "1.9x -> 4.2x".into(),
        format!("{:.2}x -> {:.2}x", f16.rows[0].speedup, f16.rows[3].speedup),
        f16.rows[0].speedup > 1.3 && f16.rows[3].speedup > f16.rows[0].speedup,
    );
    push(
        "Fig.16",
        "DMX kernel share (NER chain)",
        "93.7-97.2%".into(),
        format!("{:.1}%", 100.0 * f16.rows[0].dmx.0),
        f16.rows[0].dmx.0 > 0.75,
    );

    let bmin = f17
        .rows
        .iter()
        .map(|r| r.broadcast)
        .fold(f64::INFINITY, f64::min);
    let bmax = f17
        .rows
        .iter()
        .map(|r| r.broadcast)
        .fold(f64::NEG_INFINITY, f64::max);
    let amin = f17
        .rows
        .iter()
        .map(|r| r.all_reduce)
        .fold(f64::INFINITY, f64::min);
    let amax = f17
        .rows
        .iter()
        .map(|r| r.all_reduce)
        .fold(f64::NEG_INFINITY, f64::max);
    push(
        "Fig.17",
        "broadcast speedup range",
        "3.7-5.2x".into(),
        format!("{bmin:.1}-{bmax:.1}x"),
        bmin > 3.0 && bmax < 7.0,
    );
    push(
        "Fig.17",
        "all-reduce speedup range",
        "5.1-10.5x".into(),
        format!("{amin:.1}-{amax:.1}x"),
        amin > 5.0 && amax < 13.0,
    );

    let gain_to_128 = f18.rows[2].speedup / f18.rows[0].speedup;
    let gain_past_128 = f18.rows[3].speedup / f18.rows[2].speedup;
    push(
        "Fig.18",
        "RE lanes: gain 32->128, then flat",
        "saturates at 128".into(),
        format!(
            "+{:.0}% then +{:.0}%",
            100.0 * (gain_to_128 - 1.0),
            100.0 * (gain_past_128 - 1.0)
        ),
        gain_to_128 > 1.05 && gain_past_128 < 1.05,
    );

    Summary { claims }
}

impl Summary {
    /// True if every claim is inside its band.
    pub fn all_ok(&self) -> bool {
        self.claims.iter().all(|c| c.ok)
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "figure".into(),
            "claim".into(),
            "paper".into(),
            "this repo".into(),
            "verdict".into(),
        ]);
        for c in &self.claims {
            t.row(vec![
                c.figure.to_string(),
                c.what.to_string(),
                c.paper.clone(),
                c.measured.clone(),
                if c.ok { "PASS" } else { "DRIFT" }.to_string(),
            ]);
        }
        format!(
            "Paper-vs-measured summary ({}/{} claims in band)\n\n{}",
            self.claims.iter().filter(|c| c.ok).count(),
            self.claims.len(),
            t.render()
        )
    }
}
