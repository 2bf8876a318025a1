//! Fig. 6: q-error bucketed by the *true count* magnitude on the aids
//! query set — WJ looks good on tiny-count queries where underestimation
//! is cheap; LSS stays accurate across the range.
//!
//! Run: `cargo run -p alss-bench --bin fig6 --release`

use alss_bench::evalkit::{run_baselines, train_and_eval_lss, MethodResult};
use alss_bench::scenario::{bench_sketch_config, load_scenario};
use alss_bench::TableWriter;
use alss_core::{EncodingKind, QErrorStats};
use alss_matching::Semantics;

fn bucket_of(truth: f64) -> usize {
    // buckets: [1,1e2), [1e2,1e4), [1e4,1e6), [1e6,inf)
    let l = truth.max(1.0).log10();
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "l/2 ∈ [0, 155) for finite counts, then clamped to the 4 buckets"
    )]
    let b = (l / 2.0).floor() as usize;
    b.min(3)
}

const BUCKETS: [&str; 4] = ["[1,1e2)", "[1e2,1e4)", "[1e4,1e6)", ">=1e6"];

fn main() {
    let _telemetry = alss_telemetry::init("fig6", alss_bench::telemetry_arg().as_deref());
    let sc = load_scenario("aids", Semantics::Homomorphism);
    let (train, test) = sc.split(6);
    println!(
        "== Fig 6 [aids]: q-error by true-count range ({} test queries) ==\n",
        test.len()
    );
    let mut methods: Vec<MethodResult> = [EncodingKind::Frequency, EncodingKind::Embedding]
        .into_iter()
        .map(|enc| train_and_eval_lss(&sc, &train, &test, &bench_sketch_config(enc, 0x66)).result)
        .collect();
    methods.extend(run_baselines(&sc, &test));

    let mut t = TableWriter::new(&["count range", "method", "q-error distribution"]);
    for (b, bname) in BUCKETS.iter().enumerate() {
        for m in &methods {
            let pairs: Vec<(f64, f64)> = m
                .per_query
                .iter()
                .filter(|r| bucket_of(r.truth) == b)
                .map(|r| (r.truth, r.est.max(1.0)))
                .collect();
            if let Some(s) = QErrorStats::from_pairs(&pairs) {
                t.row(vec![bname.to_string(), m.method.clone(), s.render()]);
            }
        }
    }
    t.print();
    println!("\nexpected shape (paper): WJ's q-error is low for c(q) < 1e2 (underestimating to");
    println!("0 is cheap there) and grows with the true count; LSS stays flat across buckets.");
}
