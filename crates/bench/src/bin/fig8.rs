//! Fig. 8: average elapsed time (ms) of homomorphism counting per query
//! size — LSS prediction vs baseline estimation vs the exact engine
//! (GFlow).
//!
//! Run: `cargo run -p alss-bench --bin fig8 --release [datasets...]`

use alss_bench::evalkit::{latency_table, lss_vs_baselines, run_exact};
use alss_bench::scenario::figure_scenarios;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("fig8", alss_bench::telemetry_arg().as_deref());
    for sc in figure_scenarios(
        &["aids", "yeast", "wordnet", "eu2005", "yago"],
        Semantics::Homomorphism,
    ) {
        let (_, test, mut methods) = lss_vs_baselines(&sc, 8, 0x818);
        methods.push(run_exact(&sc, &test, 200_000_000));
        println!(
            "\n== Fig 8 [{}]: elapsed time (ms) per query, homomorphism ==\n",
            sc.name
        );
        latency_table(&test, &methods).print();
    }
    println!("\nexpected shape (paper): LSS grows linearly in query size and beats all baselines");
    println!("except index-only CSET on large graphs; exact GFlow dominates the cost; on tiny");
    println!("graphs (yeast) sampling is cheap enough to compete.");
}
