//! Table 2: statistics of the (synthetic analogues of the) real data
//! graphs — |V|, |E|, |Σ|, |Σ_E|, Ent(Σ).
//!
//! Run: `cargo run -p alss-bench --bin table2 --release`

use alss_bench::table::fnum;
use alss_bench::{load_dataset, TableWriter};
use alss_graph::labels::LabelStats;

fn main() {
    let _telemetry = alss_telemetry::init("table2", alss_bench::telemetry_arg().as_deref());
    println!("== Table 2: Real Data Graphs (synthetic analogues) ==\n");
    let mut t = TableWriter::new(&[
        "Dataset",
        "|V|",
        "|E|",
        "|Sigma|",
        "|Sigma_E|",
        "Ent(Sigma)",
    ]);
    for name in ["aids", "yeast", "youtube", "wordnet", "eu2005", "yago"] {
        let g = load_dataset(name);
        let stats = LabelStats::new(&g);
        t.row(vec![
            name.to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            g.num_node_labels().to_string(),
            if g.num_edge_labels() > 0 {
                g.num_edge_labels().to_string()
            } else {
                "-".to_string()
            },
            fnum(stats.entropy()),
        ]);
    }
    t.print();
    println!(
        "\npaper reference: aids 253k/274k/51/0.93  yeast 3.1k/12.5k/71/2.92  \
         youtube 1.13M/2.99M/20/3.21  wordnet 77k/120k/5/0.66  eu2005 863k/16.1M/40/3.68  \
         yago 12.8M/15.8M/188k+91 edge labels"
    );
    println!(
        "(sizes scaled by ALSS_SCALE={}; shapes, |Sigma| and entropy match)",
        alss_bench::scale()
    );
}
