//! Fig. 8: average elapsed time (ms) of homomorphism counting per query
//! size — LSS prediction vs baseline estimation vs the exact engine
//! (GFlow).
//!
//! Run: `cargo run -p alss-bench --bin fig8 --release [datasets...]`

use alss_bench::evalkit::{
    encodings_for, run_exact, run_homomorphism_baselines, train_and_eval_lss, MethodResult,
};
use alss_bench::scenario::{load_scenario, selected_datasets};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry = alss_telemetry::init("fig8", alss_bench::telemetry_arg().as_deref());
    for name in selected_datasets(&["aids", "yeast", "wordnet", "eu2005", "yago"]) {
        let sc = load_scenario(&name, Semantics::Homomorphism);
        if sc.workload.len() < 10 {
            alss_telemetry::progress("fig8", &format!("{name}: workload too small, skipped"));
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(8);
        let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
        println!("\n== Fig 8 [{name}]: elapsed time (ms) per query, homomorphism ==\n");
        let mut methods: Vec<MethodResult> = Vec::new();
        for enc in encodings_for(&name) {
            methods.push(train_and_eval_lss(&sc, &train, &test, enc, 0x818).result);
        }
        methods.extend(run_homomorphism_baselines(&sc, &test));
        methods.push(run_exact(&sc, &test, 200_000_000));

        let sizes = test.sizes();
        let mut header: Vec<&str> = vec!["method"];
        let size_labels: Vec<String> = sizes.iter().map(|s| format!("{s}-node")).collect();
        header.extend(size_labels.iter().map(|s| s.as_str()));
        let mut t = TableWriter::new(&header);
        for m in &methods {
            let mut row = vec![m.method.clone()];
            for &s in &sizes {
                let ms = m.mean_ms(s);
                row.push(if ms.is_nan() {
                    "-".to_string()
                } else {
                    fnum(ms)
                });
            }
            t.row(row);
        }
        t.print();
    }
    println!("\nexpected shape (paper): LSS grows linearly in query size and beats all baselines");
    println!("except index-only CSET on large graphs; exact GFlow dominates the cost; on tiny");
    println!("graphs (yeast) sampling is cheap enough to compete.");
}
