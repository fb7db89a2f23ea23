//! Memo equivalence: figures are memoized per `Suite`, so a `summary`
//! that reads them back after `repro all` has computed them must render
//! byte-identically to a `summary` computed on a fresh suite. The
//! thread-count knob is process-global, so both thread counts are
//! checked in one test function.

use dmx_bench::{run_experiment, run_experiment_checked, EXPERIMENTS};
use dmx_core::experiments::Suite;
use dmx_sim::par;

#[test]
fn summary_after_repro_all_matches_a_fresh_suite() {
    for threads in [1, 4] {
        let prev = par::set_threads(threads);
        let suite = Suite::new();
        for id in EXPERIMENTS {
            assert!(
                run_experiment_checked(&suite, id, None).ok,
                "{id} failed its embedded checks at {threads} threads"
            );
        }
        let memoized = run_experiment(&suite, "summary");
        let fresh = run_experiment(&Suite::new(), "summary");
        par::set_threads(prev);
        assert_eq!(memoized, fresh, "summary diverged at {threads} threads");
    }
}
