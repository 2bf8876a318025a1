//! Fig. 7: q-error of *subgraph isomorphism* counting on youtube and
//! eu2005 — LSS variants vs the isomorphism-revised WJ and IMPR.
//!
//! Run: `cargo run -p alss-bench --bin fig7 --release [datasets...]`

use alss_bench::evalkit::{
    encodings_for, run_isomorphism_baselines, train_and_eval_lss, MethodResult,
};
use alss_bench::scenario::{load_scenario, selected_datasets};
use alss_bench::TableWriter;
use alss_core::QErrorStats;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry = alss_telemetry::init("fig7", alss_bench::telemetry_arg().as_deref());
    for name in selected_datasets(&["youtube", "eu2005"]) {
        let sc = load_scenario(&name, Semantics::Isomorphism);
        if sc.workload.len() < 10 {
            alss_telemetry::progress("fig7", &format!("{name}: workload too small, skipped"));
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(7);
        let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
        println!(
            "\n== Fig 7 [{name}]: q-error (isomorphism), {} train / {} test ==\n",
            train.len(),
            test.len()
        );
        let mut methods: Vec<MethodResult> = Vec::new();
        for enc in encodings_for(&name) {
            methods.push(train_and_eval_lss(&sc, &train, &test, enc, 0x717).result);
        }
        methods.extend(run_isomorphism_baselines(&sc, &test));

        let mut t = TableWriter::new(&["size", "method", "q-error distribution"]);
        for size in test.sizes() {
            for m in &methods {
                let pairs = m.pairs_of_size(size);
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
    println!("\nexpected shape (paper): WJ-iso/IMPR-iso underestimate severely due to sampling");
    println!("failure (all youtube queries of >= 16 nodes fail under WJ); LSS stays accurate.");
}
