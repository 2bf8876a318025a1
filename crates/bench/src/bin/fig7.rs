//! Fig. 7: q-error of *subgraph isomorphism* counting on youtube and
//! eu2005 — LSS variants vs the isomorphism-revised WJ and IMPR.
//!
//! Run: `cargo run -p alss-bench --bin fig7 --release [datasets...]`

use alss_bench::evalkit::{lss_vs_baselines, qerror_table};
use alss_bench::scenario::figure_scenarios;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("fig7", alss_bench::telemetry_arg().as_deref());
    for sc in figure_scenarios(&["youtube", "eu2005"], Semantics::Isomorphism) {
        let (train, test, methods) = lss_vs_baselines(&sc, 7, 0x717);
        println!(
            "\n== Fig 7 [{}]: q-error (isomorphism), {} train / {} test ==\n",
            sc.name,
            train.len(),
            test.len()
        );
        qerror_table(&test, &methods).print();
    }
    println!("\nexpected shape (paper): WJ-iso/IMPR-iso underestimate severely due to sampling");
    println!("failure (all youtube queries of >= 16 nodes fail under WJ); LSS stays accurate.");
}
