//! Scaling regression gate for the two stages that used to be
//! quadratic: greedy placement and netlist signature refinement (the
//! LVS gate). Eight times the cells must cost well under 64 times the
//! time; a near-linear stage lands around 8–12×, so the 20× bound
//! leaves room for timer noise and cache effects while still failing
//! any O(n²) regression.

use silc_netlist::Netlist;
use silc_pnr::gen::random_netlist;
use silc_pnr::{place, Floorplan, RouteStack};
use silc_trace::Tracer;
use std::time::{Duration, Instant};

const SMALL: usize = 512;
const LARGE: usize = 4096;
const MAX_RATIO: f64 = 20.0;
const REPS: usize = 5;

/// Fastest of [`REPS`] runs at each size, the sizes alternating so a
/// burst of load elsewhere on the machine hits both alike; the minimum
/// is the figure least disturbed by such load.
fn fastest_pair(mut run: impl FnMut(&Netlist)) -> (Duration, Duration) {
    let small = random_netlist(11, SMALL);
    let large = random_netlist(11, LARGE);
    let mut time = |n: &Netlist| {
        let t = Instant::now();
        run(n);
        t.elapsed()
    };
    (0..REPS)
        .map(|_| (time(&small), time(&large)))
        .fold((Duration::MAX, Duration::MAX), |(a, b), (s, l)| {
            (a.min(s), b.min(l))
        })
}

fn assert_near_linear(stage: &str, (small, large): (Duration, Duration)) {
    let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
    eprintln!("{stage}: {SMALL} cells {small:?}, {LARGE} cells {large:?}, ratio {ratio:.1}");
    assert!(
        ratio < MAX_RATIO,
        "{stage} took {ratio:.1}x longer for {}x the cells ({small:?} -> {large:?}); \
         expected near-linear growth (< {MAX_RATIO}x)",
        LARGE / SMALL
    );
}

/// One test, so the two stages are never timed while the harness runs
/// the other on a second thread.
#[test]
fn placement_and_signature_scale_near_linearly() {
    let stack = RouteStack::mead_conway_nmos();
    assert_near_linear(
        "pnr.place",
        fastest_pair(|n| {
            let fp = Floorplan::squarish(n.instances().len());
            place(n, &stack, &fp, &Tracer::disabled()).expect("placement succeeds");
        }),
    );
    assert_near_linear(
        "netlist.signature",
        fastest_pair(|n| {
            assert_eq!(n.isomorphic_signature().len(), n.instances().len());
        }),
    );
}
