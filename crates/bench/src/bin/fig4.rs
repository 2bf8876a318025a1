//! Fig. 4: q-error of homomorphism counting — the three LSS variants vs
//! the seven G-CARE baselines, per dataset and query size.
//!
//! Run: `cargo run -p alss-bench --bin fig4 --release [datasets...]`
//! (defaults to all five homomorphism datasets).

use alss_bench::evalkit::{lss_vs_baselines, qerror_table};
use alss_bench::scenario::figure_scenarios;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("fig4", alss_bench::telemetry_arg().as_deref());
    for sc in figure_scenarios(
        &["aids", "yeast", "wordnet", "eu2005", "yago"],
        Semantics::Homomorphism,
    ) {
        let (train, test, methods) = lss_vs_baselines(&sc, 4, 0x515);
        println!(
            "\n== Fig 4 [{}]: q-error (homomorphism), {} train / {} test ==\n",
            sc.name,
            train.len(),
            test.len()
        );
        qerror_table(&test, &methods).print();
    }
    println!("\nexpected shape (paper): LSS medians < 3 across sizes; WJ good on aids 3/6-node,");
    println!("collapsing on larger/complex queries; CSET/SumRDF underestimate; BS overestimates.");
}
