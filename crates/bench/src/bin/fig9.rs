//! Fig. 9: average elapsed time (ms) of *isomorphism* counting on youtube
//! and eu2005 — LSS vs WJ-iso/IMPR-iso vs the exact engine (GQL).
//!
//! Run: `cargo run -p alss-bench --bin fig9 --release [datasets...]`

use alss_bench::evalkit::{latency_table, lss_vs_baselines, run_exact};
use alss_bench::scenario::figure_scenarios;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("fig9", alss_bench::telemetry_arg().as_deref());
    for sc in figure_scenarios(&["youtube", "eu2005"], Semantics::Isomorphism) {
        let (_, test, mut methods) = lss_vs_baselines(&sc, 9, 0x919);
        methods.push(run_exact(&sc, &test, 200_000_000));
        println!(
            "\n== Fig 9 [{}]: elapsed time (ms) per query, isomorphism ==\n",
            sc.name
        );
        latency_table(&test, &methods).print();
    }
    println!("\nexpected shape (paper): LSS 1-2 orders faster than WJ-iso; IMPR-iso can be");
    println!("slower than the exact engine on large graphs; GQL benefits from strong filtering.");
}
