//! Table 3: query-set statistics — #queries, sizes, range of `c(q)`, and
//! label coverage `Cov(Σ)`.
//!
//! Run: `cargo run -p alss-bench --bin table3 --release`

use alss_bench::scenario::load_scenario;
use alss_bench::TableWriter;
use alss_graph::labels::label_coverage;
use alss_matching::Semantics;

fn main() {
    let _telemetry = alss_telemetry::init("table3", alss_bench::telemetry_arg().as_deref());
    println!("== Table 3: Query Sets ==\n");
    let mut t = TableWriter::new(&[
        "Type",
        "Dataset",
        "#Queries",
        "Query Sizes",
        "Range of c(q)",
        "Cov(Sigma)",
    ]);
    let rows: Vec<(&str, Semantics)> = vec![
        ("aids", Semantics::Homomorphism),
        ("yeast", Semantics::Homomorphism),
        ("wordnet", Semantics::Homomorphism),
        ("eu2005", Semantics::Homomorphism),
        ("yago", Semantics::Homomorphism),
        ("youtube", Semantics::Isomorphism),
        ("eu2005", Semantics::Isomorphism),
    ];
    for (name, sem) in rows {
        let sc = load_scenario(name, sem);
        let graphs: Vec<_> = sc
            .workload
            .queries
            .iter()
            .map(|q| q.graph.clone())
            .collect();
        let (lo, hi) = sc.workload.count_range().unwrap_or((0, 0));
        t.row(vec![
            match sem {
                Semantics::Homomorphism => "Homo.".to_string(),
                Semantics::Isomorphism => "Iso.".to_string(),
            },
            name.to_string(),
            sc.workload.len().to_string(),
            format!("{:?}", sc.workload.sizes()),
            format!(
                "[1e{:.1}, 1e{:.1}]",
                (lo.max(1) as f64).log10(),
                (hi.max(1) as f64).log10()
            ),
            format!("{:.2}", label_coverage(&graphs)),
        ]);
    }
    t.print();
    println!(
        "\n(queries kept only if exact count fits the expansion budget — the paper's 2h filter)"
    );
}
