//! Fig. 5: percentage of queries suffering *sampling failure* for the
//! sampling-based baselines (CS, WJ, JSUB), per dataset and query size.
//!
//! Run: `cargo run -p alss-bench --bin fig5 --release [datasets...]`

use alss_bench::evalkit::run_baselines;
use alss_bench::scenario::{load_scenario, selected_datasets};
use alss_bench::TableWriter;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("fig5", alss_bench::telemetry_arg().as_deref());
    println!("== Fig 5: % sampling failure of CS / WJ / JSUB ==");
    for name in selected_datasets(&["aids", "wordnet", "yeast", "eu2005"]) {
        let sc = load_scenario(&name, Semantics::Homomorphism);
        if sc.workload.is_empty() {
            alss_telemetry::progress("fig5", &format!("{name}: workload empty, skipped"));
            continue;
        }
        let methods = run_baselines(&sc, &sc.workload);
        println!("\n[{name}]");
        let mut t = TableWriter::new(&["size", "CS", "WJ", "JSUB"]);
        for size in sc.workload.sizes() {
            let pct = |m: &str| -> String {
                methods
                    .iter()
                    .find(|r| r.method == m)
                    .map(|r| format!("{:.0}%", 100.0 * r.failure_rate(size)))
                    .unwrap_or_else(|| "-".to_string())
            };
            t.row(vec![size.to_string(), pct("CS"), pct("WJ"), pct("JSUB")]);
        }
        t.print();
    }
    println!("\nexpected shape (paper): aids nearly failure-free; yeast/eu2005 fail for all");
    println!("queries at >= 8 nodes; wordnet moderate at 4 nodes, degrading with size.");
}
