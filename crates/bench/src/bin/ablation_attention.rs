//! Ablation: structured self-attention aggregation (the paper's `w(·)`)
//! vs an unweighted sum of substructure representations.
//!
//! Run: `cargo run -p alss-bench --bin ablation_attention --release`

use alss_bench::evalkit::ablation_sweep;
use alss_bench::TableWriter;
use alss_core::model::Aggregator;

fn main() {
    let _telemetry =
        alss_telemetry::init("ablation_attention", alss_bench::telemetry_arg().as_deref());
    let knobs = [
        ("attention".to_string(), Aggregator::Attention),
        ("sum-pool".to_string(), Aggregator::SumPool),
    ];
    let rows = ablation_sweep(&["aids", "yeast"], 0xAB3, &knobs, |cfg, agg| {
        cfg.model.aggregator = agg;
    });
    let mut t = TableWriter::new(&["dataset", "aggregator", "q-error distribution"]);
    for r in rows {
        t.row(vec![r.dataset, r.label, r.qerror]);
    }
    println!("== Ablation: substructure aggregation ==\n");
    t.print();
    println!("\nexpected: attention learns query-specific substructure weights and beats the");
    println!("unweighted sum, which treats redundant and informative substructures alike.");
}
