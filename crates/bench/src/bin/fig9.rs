//! Fig. 9: average elapsed time (ms) of *isomorphism* counting on youtube
//! and eu2005 — LSS vs WJ-iso/IMPR-iso vs the exact engine (GQL).
//!
//! Run: `cargo run -p alss-bench --bin fig9 --release [datasets...]`

use alss_bench::evalkit::{
    encodings_for, run_exact, run_isomorphism_baselines, train_and_eval_lss, MethodResult,
};
use alss_bench::scenario::{load_scenario, selected_datasets};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_matching::Semantics;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let _telemetry = alss_telemetry::init("fig9", alss_bench::telemetry_arg().as_deref());
    for name in selected_datasets(&["youtube", "eu2005"]) {
        let sc = load_scenario(&name, Semantics::Isomorphism);
        if sc.workload.len() < 10 {
            alss_telemetry::progress("fig9", &format!("{name}: workload too small, skipped"));
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(9);
        let (train, test) = sc.workload.stratified_split(0.8, &mut rng);
        println!("\n== Fig 9 [{name}]: elapsed time (ms) per query, isomorphism ==\n");
        let mut methods: Vec<MethodResult> = Vec::new();
        for enc in encodings_for(&name) {
            methods.push(train_and_eval_lss(&sc, &train, &test, enc, 0x919).result);
        }
        methods.extend(run_isomorphism_baselines(&sc, &test));
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
    println!("\nexpected shape (paper): LSS 1-2 orders faster than WJ-iso; IMPR-iso can be");
    println!("slower than the exact engine on large graphs; GQL benefits from strong filtering.");
}
