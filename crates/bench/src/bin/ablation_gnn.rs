//! Ablation: GIN (injective sum aggregation, the paper's choice for its
//! WL-test expressiveness) vs mean aggregation (GCN/GraphSAGE-style).
//!
//! Run: `cargo run -p alss-bench --bin ablation_gnn --release`

use alss_bench::evalkit::ablation_sweep;
use alss_bench::TableWriter;
use alss_nn::Aggregation;

fn main() {
    let _telemetry = alss_telemetry::init("ablation_gnn", alss_bench::telemetry_arg().as_deref());
    let knobs = [
        ("sum (GIN)".to_string(), Aggregation::Sum),
        ("mean".to_string(), Aggregation::Mean),
    ];
    let rows = ablation_sweep(&["aids", "yeast"], 0xAB4, &knobs, |cfg, agg| {
        cfg.model.gnn_aggregation = agg;
    });
    let mut t = TableWriter::new(&["dataset", "gnn agg", "q-error distribution"]);
    for r in rows {
        t.row(vec![r.dataset, r.label, r.qerror]);
    }
    println!("== Ablation: GNN neighborhood aggregation ==\n");
    t.print();
    println!("\nexpected: sum (GIN) distinguishes neighbor multiplicities — which carry count");
    println!("signal — and should dominate mean aggregation, per the paper's §4.2 argument.");
}
