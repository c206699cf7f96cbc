//! Walkthrough of the perf-regression subsystem: run the micro suite, build
//! a `BENCH_micro.json` snapshot, and gate a (simulated) regression with the
//! compare band.
//!
//! ```text
//! cargo run --release --example bench_suite
//! ```

use shift::bench::compare::{compare, GATE_BAND};
use shift::bench::snapshot::Snapshot;
use shift::bench::suite::{run_suite, SuiteOptions};
use shift::video::image::render_kernel;

fn main() {
    // 1. Run the suite in smoke sizing (the same sizing CI uses).
    let options = SuiteOptions::smoke();
    let rows = run_suite(2024, &options);
    println!("micro suite ({} hot paths):", rows.len());
    for row in &rows {
        println!("  {:<28} {:>12}", row.name, row.display_time());
    }

    // 2. Reduce the run to a snapshot — this is exactly what
    //    `repro -- bench` writes to BENCH_micro.json.
    let snapshot = Snapshot::new("smoke", 2024, render_kernel(), rows);
    let json = snapshot.to_json();
    println!("\nsnapshot wire format ({} bytes):\n{json}", json.len());
    // The file keeps ns/op to 0.1 ns, so the wire text (not the raw
    // measurement) is what survives a round trip.
    let parsed = Snapshot::parse(&json).expect("snapshot round-trips");
    assert_eq!(parsed.to_json(), json);

    // 3. Gate a doctored "current" run against it: slow one hot path down
    //    3x and watch the gate's ±30% band catch it.
    let mut slowed = snapshot.clone();
    slowed.benches[1].ns_per_op *= 3.0;
    let comparison = compare(&snapshot, &slowed);
    println!("gate report for a 3x-slower {}:", slowed.benches[1].name);
    print!("{}", comparison.report(GATE_BAND));
    assert!(
        !comparison.passes(GATE_BAND),
        "a 3x regression must fail the gate"
    );

    // An honest re-measurement of the same machine passes.
    let honest = compare(&snapshot, &snapshot.clone());
    assert!(honest.passes(GATE_BAND));
    println!("identical snapshots pass the gate, as expected");
}
