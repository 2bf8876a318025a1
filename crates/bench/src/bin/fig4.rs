//! Fig. 4: q-error of homomorphism counting — the three LSS variants vs
//! the seven G-CARE baselines, per dataset and query size.
//!
//! Run: `cargo run -p alss-bench --bin fig4 --release [datasets...]`
//! (defaults to all five homomorphism datasets).

use alss_bench::evalkit::{
    encodings_for, run_homomorphism_baselines, train_and_eval_lss, MethodResult,
};
use alss_bench::scenario::{load_scenario, selected_datasets};
use alss_bench::TableWriter;
use alss_core::QErrorStats;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry = alss_telemetry::init("fig4", alss_bench::telemetry_arg().as_deref());
    for name in selected_datasets(&["aids", "yeast", "wordnet", "eu2005", "yago"]) {
        let sc = load_scenario(&name, Semantics::Homomorphism);
        if sc.workload.len() < 10 {
            alss_telemetry::progress(
                "fig4",
                &format!(
                    "{name}: workload too small ({}), skipped",
                    sc.workload.len()
                ),
            );
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(4);
        let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
        println!(
            "\n== Fig 4 [{name}]: q-error (homomorphism), {} train / {} test ==\n",
            train.len(),
            test.len()
        );

        let mut methods: Vec<MethodResult> = Vec::new();
        for enc in encodings_for(&name) {
            alss_telemetry::progress("fig4", &format!("{name}: training {enc}"));
            let eval = train_and_eval_lss(&sc, &train, &test, enc, 0x515);
            methods.push(eval.result);
        }
        alss_telemetry::progress("fig4", &format!("{name}: running baselines"));
        methods.extend(run_homomorphism_baselines(&sc, &test));

        let mut t = TableWriter::new(&["size", "method", "q-error distribution"]);
        for size in test.sizes() {
            for m in &methods {
                let pairs = m.pairs_of_size(size);
                // the paper omits methods where every query failed
                let all_failed = m
                    .per_query
                    .iter()
                    .filter(|r| r.size == size)
                    .all(|r| r.failed);
                let cell = match QErrorStats::from_pairs(&pairs) {
                    _ if all_failed && !pairs.is_empty() => "all queries failed".to_string(),
                    Some(s) => s.render(),
                    None => "n/a".to_string(),
                };
                t.row(vec![size.to_string(), m.method.clone(), cell]);
            }
        }
        t.print();
    }
    println!("\nexpected shape (paper): LSS medians < 3 across sizes; WJ good on aids 3/6-node,");
    println!("collapsing on larger/complex queries; CSET/SumRDF underestimate; BS overestimates.");
}
