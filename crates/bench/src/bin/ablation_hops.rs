//! Ablation: BFS-tree decomposition depth `l` (the paper fixes `l = 3`;
//! DESIGN.md calls out 1/2/3-hop as a design-choice ablation).
//!
//! Run: `cargo run -p alss-bench --bin ablation_hops --release`

use alss_bench::evalkit::ablation_sweep;
use alss_bench::TableWriter;

fn main() {
    let _telemetry = alss_telemetry::init("ablation_hops", alss_bench::telemetry_arg().as_deref());
    let knobs = [1u32, 2, 3, 4].map(|hops| (hops.to_string(), hops));
    let rows = ablation_sweep(&["aids"], 0xAB1, &knobs, |cfg, hops| cfg.hops = hops);
    println!(
        "== Ablation: decomposition depth l (aids, {} test queries) ==\n",
        rows[0].test_len
    );
    let mut t = TableWriter::new(&["l", "q-error distribution", "train s"]);
    for r in rows {
        t.row(vec![r.label, r.qerror, format!("{:.1}", r.train_secs)]);
    }
    t.print();
    println!("\nexpected: l=3 (the paper's setting) at or near the best accuracy; l=1 loses");
    println!("multi-hop context; larger l grows substructures (and cost) with little gain.");
}
