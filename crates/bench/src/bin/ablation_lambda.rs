//! Ablation: multi-task coefficient λ of Eq. (6) (paper: λ = 1/3). λ = 0
//! disables the magnitude classifier (and with it the AL uncertainty
//! signal); λ → 1 starves the regression head.
//!
//! Run: `cargo run -p alss-bench --bin ablation_lambda --release`

use alss_bench::evalkit::ablation_sweep;
use alss_bench::TableWriter;

fn main() {
    let _telemetry =
        alss_telemetry::init("ablation_lambda", alss_bench::telemetry_arg().as_deref());
    let knobs = [0.0f32, 1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 0.9].map(|l| (format!("{l:.2}"), l));
    let rows = ablation_sweep(&["aids"], 0xAB2, &knobs, |cfg, lambda| {
        cfg.model.lambda = lambda;
    });
    println!(
        "== Ablation: Eq. (6) λ sweep (aids, {} test queries) ==\n",
        rows[0].test_len
    );
    let mut t = TableWriter::new(&["lambda", "q-error distribution"]);
    for r in rows {
        t.row(vec![r.label, r.qerror]);
    }
    t.print();
    println!("\nexpected: accuracy is flat for moderate λ (the paper reports insensitivity);");
    println!("large λ degrades regression. λ = 0 trains no classifier → no AL signal.");
}
