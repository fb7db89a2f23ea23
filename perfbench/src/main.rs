//! The DMX benchmark: four workloads that drive the simulator through
//! its public API, timed from outside.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload repro_all --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run repeats passes of one workload for `--seconds` (at least
//! [`MIN_PASSES`]) and reports medians over passes. `--trace 0` reports
//! the end-to-end metrics, taking the peak RSS from fresh child processes
//! of the same binary (run with `--child 1`, which spawns none itself).
//! `--trace 1` alternates traced and untraced passes, then makes one
//! traced pass of every other workload and runs the layer probes, and
//! reports the per-layer metrics. Every call's
//! output is digested (printed as `digest` lines); a digest that differs
//! between same-seed passes, a failed embedded check or a broken
//! conservation ledger counts as a failed operation. The last line of
//! standard output is one JSON object.

mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;
use workloads::{median, probes, run_pass, Pass, Probes, Workload, SWEEP_APPS, SWEEP_MODES};

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;

/// Fewest passes of the requested workload in one run.
const MIN_PASSES: u32 = 2;

/// Fresh processes whose median peak RSS the untraced run reports.
const RSS_PROCESSES: usize = 5;

/// glibc's initial mmap threshold, pinned in those processes. With the
/// dynamic threshold a process's VmHWM differs by up to ~1 MB between
/// identical runs; pinned, it repeats within ~2%.
const MMAP_THRESHOLD: &str = "131072";

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("loop_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    add("sim.events", "count");
    add("sim.ns_per_event", "ns");
    for n in SWEEP_APPS {
        add(&format!("sim.ns_per_event.n{n}"), "ns");
    }
    for (mode, _) in SWEEP_MODES {
        add(&format!("sim.ns_per_event.{mode}"), "ns");
    }
    add("sim.setup_us_per_system", "us");
    add("sweep.req_per_s", "1/s");
    add("driver.irq", "count");
    add("driver.polled", "count");
    add("layer.inert.tax", "ratio");
    add("self.simulate_s", "s");
    add("self.setup_s", "s");
    add("drx.suite_build_s", "s");
    add("drx.cost_calls_cold", "count");
    add("drx.cost_s", "s");
    add("cpu.characterize_calls", "count");
    add("cpu.characterize_s", "s");
    for id in dmx_bench::EXPERIMENTS {
        add(&format!("exp.{id}.s"), "s");
    }
    add("exp.render_s", "s");
    add("self.exp_s", "s");
    add("self.render_s", "s");
    add("summary.claims_pass", "count");
    add("robust.req_per_s", "1/s");
    for layer in ["overload", "integrity", "crash", "failslow", "all"] {
        add(&format!("layer.{layer}.tax"), "ratio");
    }
    add("overload.shed_ratio", "ratio");
    add("integrity.reexec_per_detected", "ratio");
    add("crash.migrations", "count");
    add("failslow.hedge_win_ratio", "ratio");
    add("fleet.req_per_s", "1/s");
    add("fleet.ns_per_event", "ns");
    add("fleet.events_per_window", "count");
    add("fleet.messages", "count");
    add("fleet.attempts_per_req", "ratio");
    add("fleet.goodput_ratio", "ratio");
    add("self.run_fleet_s", "s");
    add("partition.us_per_window.s1", "us");
    add("partition.us_per_window.s2", "us");
    add("partition.speedup.s2", "ratio");
    add("trace.overhead_ratio", "ratio");
    add("trace.attributed_ratio", "ratio");
    add("self.pass_s", "s");
    m
}

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// A run spawned for its peak RSS, which spawns none itself.
    child: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--child 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(v).unwrap_or_else(|| usage(&format!("unknown workload `{v}`"))),
                )
            }
            "--seed" => {
                seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad seed `{v}`")))
            }
            "--seconds" => {
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage(&format!("bad seconds `{v}`")))
            }
            "--trace" | "--child" => {
                let on = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&format!("{flag} takes 0 or 1, got `{v}`")),
                };
                if flag == "--trace" {
                    trace = on;
                } else {
                    child = on;
                }
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed,
        seconds,
        trace,
        child,
    }
}

/// The median peak RSS, in MB, of [`RSS_PROCESSES`] fresh processes
/// that each make the smallest run of `args.workload`, one at a time.
fn peak_rss_mb(args: Args) -> f64 {
    let exe = std::env::current_exe().expect("own executable path");
    let w = args.workload.name();
    let seed = args.seed.to_string();
    let prefix = format!("metric {w} peak_rss_mb ");
    let peaks = (0..RSS_PROCESSES)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    &seed,
                    "--seconds",
                    "0",
                    "--trace",
                    "0",
                    "--child",
                    "1",
                ])
                .env("MALLOC_MMAP_THRESHOLD_", MMAP_THRESHOLD)
                .stderr(std::process::Stdio::null())
                .output()
                .expect("child process runs");
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .find_map(|l| {
                    l.strip_prefix(&prefix)?
                        .split_whitespace()
                        .next()?
                        .parse()
                        .ok()
                })
                .expect("child reports its peak RSS")
        })
        .collect();
    median(peaks)
}

/// What one run produced.
#[derive(Debug)]
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, &'static str, f64, usize)>,
    digests: Vec<(String, u64)>,
}

/// Marks every op whose digest differs from the same op of the first
/// pass: same seed, same inputs, so the bytes must match.
fn check_repeats(passes: &mut [Pass]) {
    let Some((first, rest)) = passes.split_first_mut() else {
        return;
    };
    for p in rest {
        for (op, reference) in p.ops.iter_mut().zip(&first.ops) {
            op.ok &= op.name == reference.name && op.digest == reference.digest;
        }
    }
}

/// Metric values with their sample counts.
type Values = BTreeMap<String, (f64, usize)>;

fn put(v: &mut Values, name: &str, xs: Vec<f64>) {
    let n = xs.len();
    v.insert(name.to_string(), (median(xs), n));
}

fn per_pass(v: &mut Values, name: &str, passes: &[&Pass], f: impl Fn(&Pass) -> f64) {
    put(v, name, passes.iter().map(|p| f(p)).collect());
}

fn count(p: &Pass, key: &str) -> f64 {
    p.counts.get(key).copied().unwrap_or(0.0)
}

/// The pass's count `a` per count `b`.
fn ratio<'a>(a: &'a str, b: &'a str) -> impl Fn(&Pass) -> f64 + 'a {
    move |p| count(p, a) / count(p, b).max(1.0)
}

/// Host ns per event over the cells `keep` selects.
fn ns_per_event(p: &Pass, keep: impl Fn(&workloads::Cell) -> bool) -> f64 {
    let (secs, events) = p
        .cells
        .iter()
        .filter(|c| keep(c))
        .fold((0.0, 0u64), |(s, e), c| {
            (s + c.secs - c.setup, e + c.events)
        });
    secs * 1e9 / events.max(1) as f64
}

/// Per-layer metrics whose home is workload `w`, from its passes.
fn layer_metrics(
    w: Workload,
    passes: &[&Pass],
    selfs: &BTreeMap<u32, BTreeMap<&'static str, f64>>,
    v: &mut Values,
) {
    let traced: Vec<&BTreeMap<&str, f64>> =
        passes.iter().filter_map(|p| selfs.get(&p.id)).collect();
    let self_time = |v: &mut Values, metric: &str, span: &str| {
        put(
            v,
            metric,
            traced
                .iter()
                .map(|s| s.get(span).copied().unwrap_or(0.0))
                .collect(),
        );
    };
    let req_per_s = |p: &Pass| p.requests as f64 / p.loop_secs();
    match w {
        Workload::ReproAll => {
            for id in dmx_bench::EXPERIMENTS {
                per_pass(v, &format!("exp.{id}.s"), passes, |p| {
                    p.cells
                        .iter()
                        .filter(|c| c.label == id)
                        .map(|c| c.secs)
                        .sum()
                });
            }
            per_pass(v, "exp.render_s", passes, |p| p.render);
            per_pass(v, "summary.claims_pass", passes, |p| count(p, "claims"));
            self_time(v, "self.exp_s", "exp");
            self_time(v, "self.render_s", "render");
        }
        Workload::ServerSweep => {
            per_pass(v, "sim.events", passes, |p| p.events as f64);
            per_pass(v, "sim.ns_per_event", passes, |p| ns_per_event(p, |_| true));
            for n in SWEEP_APPS {
                per_pass(v, &format!("sim.ns_per_event.n{n}"), passes, |p| {
                    ns_per_event(p, |c| c.apps == n)
                });
            }
            for (mode, _) in SWEEP_MODES {
                per_pass(v, &format!("sim.ns_per_event.{mode}"), passes, |p| {
                    ns_per_event(p, |c| c.label == mode)
                });
            }
            per_pass(v, "sim.setup_us_per_system", passes, |p| {
                let setup: f64 = p.cells.iter().map(|c| c.setup).sum();
                setup * 1e6 / p.cells.len().max(1) as f64
            });
            per_pass(v, "sweep.req_per_s", passes, req_per_s);
            per_pass(v, "driver.irq", passes, |p| count(p, "irq"));
            per_pass(v, "driver.polled", passes, |p| count(p, "polled"));
            self_time(v, "self.simulate_s", "simulate");
            self_time(v, "self.setup_s", "setup");
        }
        Workload::RobustServer => {
            per_pass(v, "robust.req_per_s", passes, req_per_s);
            per_pass(v, "overload.shed_ratio", passes, ratio("shed", "offered"));
            per_pass(
                v,
                "integrity.reexec_per_detected",
                passes,
                ratio("reexecs", "detected"),
            );
            per_pass(v, "crash.migrations", passes, |p| count(p, "migrations"));
            per_pass(
                v,
                "failslow.hedge_win_ratio",
                passes,
                ratio("won_hedge", "hedged"),
            );
        }
        Workload::Fleet => {
            per_pass(v, "fleet.req_per_s", passes, req_per_s);
            per_pass(v, "fleet.ns_per_event", passes, |p| {
                ns_per_event(p, |c| c.label != "calibrate")
            });
            per_pass(
                v,
                "fleet.events_per_window",
                passes,
                ratio("fleet_events", "windows"),
            );
            per_pass(v, "fleet.messages", passes, |p| count(p, "messages"));
            per_pass(
                v,
                "fleet.attempts_per_req",
                passes,
                ratio("dispatched", "fleet_offered"),
            );
            per_pass(
                v,
                "fleet.goodput_ratio",
                passes,
                ratio("goodput", "fleet_offered"),
            );
            self_time(v, "self.run_fleet_s", "run_fleet");
        }
    }
}

fn run(args: Args) -> Outcome {
    dmx_sim::par::set_threads(1);
    let mut tr = Tracer::new(false);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let min = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let mut id = 0;
    while id < min || start.elapsed().as_secs_f64() < args.seconds {
        // The traced run alternates traced and untraced passes, so the
        // overhead ratio compares passes made under the same conditions.
        tr.set_on(args.trace && id % 2 == 1);
        let p = run_pass(args.workload, &mut tr, args.seed, id);
        eprintln!(
            "pass {id} wall {:.6} s setup {:.6} s traced {}",
            p.wall, p.setup, p.traced
        );
        passes.push(p);
        id += 1;
    }
    check_repeats(&mut passes);

    let mut ops: Vec<workloads::Op> = passes.iter().flat_map(|p| p.ops.iter().cloned()).collect();
    let digests = passes[0]
        .ops
        .iter()
        .map(|o| (o.name.clone(), o.digest))
        .collect();
    let mut v = Values::new();
    let own: Vec<&Pass> = passes.iter().collect();
    if args.trace {
        let untraced: Vec<&Pass> = own.iter().filter(|p| !p.traced).copied().collect();
        let traced_w: Vec<&Pass> = own.iter().filter(|p| p.traced).copied().collect();
        // One traced pass of every other workload, for the layers they own.
        tr.set_on(true);
        let mut others: Vec<(Workload, Pass)> = Vec::new();
        for w in Workload::ALL.into_iter().filter(|w| *w != args.workload) {
            let p = run_pass(w, &mut tr, args.seed, id);
            id += 1;
            ops.extend(p.ops.iter().cloned());
            others.push((w, p));
        }
        let mut probed = Probes::default();
        for w in Workload::ALL {
            // Probe spans get a pass id of their own, outside every pass.
            let start = tr.begin_pass(u32::MAX);
            probes(w, &mut tr, args.seed, &mut probed);
            tr.end_pass(start);
        }
        ops.append(&mut probed.ops);
        let selfs = tr.self_times();
        eprintln!("trace: {} spans kept in memory", tr.len());

        layer_metrics(args.workload, &own, &selfs, &mut v);
        for (w, p) in &others {
            layer_metrics(*w, &[p], &selfs, &mut v);
        }
        for (name, x) in probed.values {
            v.insert(name, (x, 1));
        }
        per_pass(&mut v, "drx.suite_build_s", &own, |p| p.suite);
        let wall = |ps: &[&Pass]| median(ps.iter().map(|p| p.wall).collect());
        v.insert(
            "trace.overhead_ratio".into(),
            (
                wall(&traced_w) / wall(&untraced),
                traced_w.len() + untraced.len(),
            ),
        );
        let pass_self = |p: &Pass| {
            selfs
                .get(&p.id)
                .and_then(|s| s.get("pass"))
                .copied()
                .unwrap_or(0.0)
        };
        per_pass(&mut v, "trace.attributed_ratio", &traced_w, |p| {
            1.0 - pass_self(p) / p.wall
        });
        per_pass(&mut v, "self.pass_s", &traced_w, pass_self);
    } else {
        per_pass(&mut v, "wall_s", &own, |p| p.wall);
        per_pass(&mut v, "setup_s", &own, |p| p.setup);
        per_pass(&mut v, "loop_s", &own, |p| p.loop_secs());
        let rss = if args.child {
            (
                dmx_bench::bench::peak_rss_kb().unwrap_or(0) as f64 / 1024.0,
                1,
            )
        } else {
            (peak_rss_mb(args), RSS_PROCESSES)
        };
        v.insert("peak_rss_mb".into(), rss);
    }
    let failed = ops.iter().filter(|o| !o.ok).count();
    for o in ops.iter().filter(|o| !o.ok) {
        eprintln!("FAILED: {}", o.name);
    }
    v.insert(
        "ok_ratio".into(),
        (1.0 - failed as f64 / ops.len().max(1) as f64, ops.len()),
    );

    let spec: Vec<(String, &'static str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics = spec
        .into_iter()
        .map(|(name, unit)| {
            let (x, n) = v
                .get(&name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            (name, unit, x, n)
        })
        .collect();
    Outcome {
        attempted: ops.len(),
        failed,
        metrics,
        digests,
    }
}

/// A JSON number; non-finite values (which a correct run never
/// produces) become -1 so the line stays valid JSON.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "-1".into()
    }
}

fn to_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, x, _)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*x)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && o.attempted > 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args);
    let o = run(args);
    let w = args.workload.name();
    let all = o
        .digests
        .iter()
        .fold(String::new(), |s, (n, d)| s + &format!("{n}:{d:016x};"));
    for (name, d) in &o.digests {
        println!("digest {w} {name} {d:016x}");
    }
    println!(
        "digest {w} all {:016x}",
        dmx_kernels::checksum::fnv1a(all.as_bytes())
    );
    for (name, unit, x, n) in &o.metrics {
        println!("metric {w} {name} {x} {unit} n={n}");
    }
    println!("{}", to_json(&o));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists of `BENCHMARK.json`, as (name, unit) pairs.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..start + text[start..].find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = &rest[..rest.find('"').expect("name closes")];
                let u = &rest[rest.find("\"unit\": \"").expect("unit present") + 9..];
                (
                    name.to_string(),
                    u[..u.find('"').expect("unit closes")].to_string(),
                )
            })
            .collect()
    }

    fn names(spec: impl IntoIterator<Item = (String, &'static str)>) -> Vec<(String, String)> {
        spec.into_iter().map(|(n, u)| (n, u.to_string())).collect()
    }

    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        assert_eq!(
            declared("end_to_end"),
            names(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)))
        );
        assert_eq!(declared("per_layer"), names(per_layer()));
    }

    /// Every workload at its smallest size (one timed pass pair, zero
    /// seconds) reports every metric with its unit and fails nothing.
    #[test]
    fn every_workload_reports_every_metric_and_fails_nothing() {
        for w in Workload::ALL {
            for trace in [false, true] {
                let o = run(Args {
                    workload: w,
                    seed: DEFAULT_SEED,
                    seconds: 0.0,
                    trace,
                    child: true,
                });
                let expect = if trace {
                    names(per_layer())
                } else {
                    names(END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)))
                };
                let got: Vec<(String, String)> = o
                    .metrics
                    .iter()
                    .map(|(n, u, _, _)| (n.clone(), u.to_string()))
                    .collect();
                assert_eq!(got, expect, "{} trace={trace}", w.name());
                assert_eq!(o.failed, 0, "{} trace={trace}", w.name());
                assert!(
                    o.metrics.iter().all(|m| m.2.is_finite()),
                    "{} trace={trace}",
                    w.name()
                );
                let json = to_json(&o);
                assert!(json.starts_with("{\"correct\": true"), "{json}");
            }
        }
    }
}
