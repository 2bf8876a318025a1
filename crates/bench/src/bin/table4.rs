//! Table 4: LSS training time (50-epoch budget) per homomorphism query
//! set, per encoding variant, plus the ProNE embedding pre-training time.
//!
//! Run: `cargo run -p alss-bench --bin table4 --release [datasets...]`

use alss_bench::evalkit::{encodings_for, train_and_eval_lss};
use alss_bench::scenario::{bench_sketch_config, figure_scenarios};
use alss_bench::table::fnum;
use alss_bench::TableWriter;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("table4", alss_bench::telemetry_arg().as_deref());
    println!("== Table 4: training time (s) ==\n");
    let mut t = TableWriter::new(&["Dataset", "LSS-fre", "LSS-emb", "LSS-con", "Embedding"]);
    for sc in figure_scenarios(
        &["aids", "yeast", "wordnet", "eu2005"],
        Semantics::Homomorphism,
    ) {
        let (train, test) = sc.split(0x44);
        let mut cells = vec![sc.name.clone()];
        let mut emb_time = 0.0f64;
        for enc in encodings_for(&sc.name) {
            let eval = train_and_eval_lss(&sc, &train, &test, &bench_sketch_config(enc, 0x44));
            cells.push(fnum(eval.report.duration.as_secs_f64()));
            emb_time = emb_time.max(eval.encoder_secs);
        }
        while cells.len() < 4 {
            cells.push("-".to_string());
        }
        cells.push(fnum(emb_time));
        t.row(cells);
    }
    t.print();
    println!("\n(training time scales with #queries x epochs, independent of data-graph size;");
    println!("ProNE pre-training is linear in |G_L| — the paper's Table 4 observations)");
}
