//! Labeled query workloads: `(query graph, true count)` pairs plus the
//! split utilities used throughout §6 (stratified train/test splits,
//! size-bucket grouping, true-count-range bucketing).

use crate::json::{field, items_of, object, str_of, uint_of};
use alss_graph::io::{from_text, to_text};
use alss_graph::Graph;
use rand::seq::SliceRandom;
use rand::Rng;
use serde_json::Value;

/// One labeled training/test query (the `(q_i, c(q_i))` of §2). Stored
/// as `{"graph": "<t/v/e text>", "count": c}`: the graph in the text
/// format of [`alss_graph::io`], read back by the same parser that reads
/// graph files and serve requests.
#[derive(Clone, Debug)]
pub struct LabeledQuery {
    /// The query graph.
    pub graph: Graph,
    /// Its exact matching count under the workload's semantics.
    pub count: u64,
}

impl LabeledQuery {
    /// Construct a labeled query.
    pub fn new(graph: Graph, count: u64) -> Self {
        LabeledQuery { graph, count }
    }

    /// Number of query nodes.
    pub fn size(&self) -> usize {
        self.graph.num_nodes()
    }

    /// `{"graph": "<t/v/e text>", "count": c}`.
    fn to_json(&self) -> Value {
        object([
            ("graph", Value::Str(to_text(&self.graph))),
            ("count", Value::UInt(self.count)),
        ])
    }

    /// Read a query written by [`LabeledQuery::to_json`]; an error names
    /// the field: `graph: line <n>: …`.
    fn from_json(v: &Value) -> Result<Self, String> {
        let graph = field(v, "graph", |x| {
            from_text(str_of(x)?).map_err(|e| e.to_string())
        })?;
        let count = field(v, "count", uint_of)?;
        Ok(LabeledQuery { graph, count })
    }
}

/// A workload of labeled queries, stored as `{"queries": [...]}`.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// The labeled queries.
    pub queries: Vec<LabeledQuery>,
}

/// `⌊frac · n⌉` clamped to `0..=n`: the one float→usize cast for
/// workload split sizes, total by construction.
fn split_size(n: usize, frac: f64) -> usize {
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "clamped to [0, n] before the cast; n < 2^53 in practice"
    )]
    let k = ((n as f64) * frac).round().clamp(0.0, n as f64) as usize;
    k
}

impl Workload {
    /// Empty workload.
    pub fn new() -> Self {
        Workload {
            queries: Vec::new(),
        }
    }

    /// The workload as JSON: `{"queries": [{"graph": "<t/v/e text>",
    /// "count": c}, …]}`.
    pub fn to_json(&self) -> String {
        let queries = self.queries.iter().map(LabeledQuery::to_json).collect();
        serde_json::to_string(&object([("queries", Value::Array(queries))]))
    }

    /// Read a workload written by [`Workload::to_json`]. An error names
    /// the first query that fails and why: `query <i>: graph: line <n>: …`.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let queries = field(&v, "queries", items_of)?
            .iter()
            .enumerate()
            .map(|(i, q)| LabeledQuery::from_json(q).map_err(|e| format!("query {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(Workload { queries })
    }

    /// Wrap a query list.
    pub fn from_queries(queries: Vec<LabeledQuery>) -> Self {
        Workload { queries }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Distinct query sizes, ascending (Table 3's "Query Sizes").
    pub fn sizes(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.queries.iter().map(|q| q.size()).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// Queries of one size bucket.
    pub fn of_size(&self, size: usize) -> Vec<&LabeledQuery> {
        self.queries.iter().filter(|q| q.size() == size).collect()
    }

    /// Range of true counts `(min, max)` (Table 3's "Range of c(q)").
    pub fn count_range(&self) -> Option<(u64, u64)> {
        let min = self.queries.iter().map(|q| q.count).min()?;
        let max = self.queries.iter().map(|q| q.count).max()?;
        Some((min, max))
    }

    /// Stratified split by query size: `train_frac` of each size bucket
    /// goes to the first returned workload (§6.2's 80/20 protocol). This
    /// is the two-part [`Workload::stratified_multi_split`].
    pub fn stratified_split<R: Rng>(&self, train_frac: f64, rng: &mut R) -> (Workload, Workload) {
        assert!((0.0..=1.0).contains(&train_frac), "fraction out of range");
        let mut parts = self.stratified_multi_split(&[train_frac, 1.0 - train_frac], rng);
        let test = parts.pop().unwrap_or_default();
        let train = parts.pop().unwrap_or_default();
        (train, test)
    }

    /// Split into `fractions.len()` parts stratified by size (e.g. the
    /// 60/20/20 split of §6.4). Fractions must sum to ≈ 1.
    pub fn stratified_multi_split<R: Rng>(&self, fractions: &[f64], rng: &mut R) -> Vec<Workload> {
        let total: f64 = fractions.iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "fractions must sum to 1");
        let mut parts: Vec<Vec<LabeledQuery>> = vec![Vec::new(); fractions.len()];
        for size in self.sizes() {
            let mut bucket: Vec<LabeledQuery> = self.of_size(size).into_iter().cloned().collect();
            bucket.shuffle(rng);
            let n = bucket.len();
            let mut start = 0usize;
            for (pi, &f) in fractions.iter().enumerate() {
                let take = if pi + 1 == fractions.len() {
                    n - start
                } else {
                    split_size(n, f)
                };
                let end = (start + take).min(n);
                parts[pi].extend(bucket[start..end].iter().cloned());
                start = end;
            }
        }
        parts.into_iter().map(Workload::from_queries).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mk(size: usize, count: u64) -> LabeledQuery {
        let labels: Vec<u32> = vec![0; size];
        let edges: Vec<(u32, u32)> = (1..size as u32).map(|i| (i - 1, i)).collect();
        LabeledQuery::new(graph_from_edges(&labels, &edges), count)
    }

    fn workload() -> Workload {
        let mut qs = Vec::new();
        for i in 0..20 {
            qs.push(mk(3, 10 + i));
            qs.push(mk(6, 1000 + i));
        }
        Workload::from_queries(qs)
    }

    #[test]
    fn sizes_and_ranges() {
        let w = workload();
        assert_eq!(w.sizes(), vec![3, 6]);
        assert_eq!(w.count_range(), Some((10, 1019)));
        assert_eq!(w.of_size(3).len(), 20);
    }

    #[test]
    fn stratified_split_preserves_buckets() {
        let w = workload();
        let mut rng = SmallRng::seed_from_u64(0);
        let (tr, te) = w.stratified_split(0.8, &mut rng);
        assert_eq!(tr.len(), 32);
        assert_eq!(te.len(), 8);
        assert_eq!(tr.of_size(3).len(), 16);
        assert_eq!(te.of_size(6).len(), 4);
    }

    #[test]
    fn stratified_split_is_the_two_part_multi_split() {
        let w = workload();
        for seed in 0..4 {
            for frac in [0.0, 0.25, 0.5, 0.8, 1.0] {
                let (tr, te) = w.stratified_split(frac, &mut SmallRng::seed_from_u64(seed));
                let parts = w.stratified_multi_split(
                    &[frac, 1.0 - frac],
                    &mut SmallRng::seed_from_u64(seed),
                );
                assert_eq!(
                    tr.to_json(),
                    parts[0].to_json(),
                    "train, {frac} seed {seed}"
                );
                assert_eq!(te.to_json(), parts[1].to_json(), "test, {frac} seed {seed}");
            }
        }
    }

    #[test]
    fn multi_split_partitions_everything() {
        let w = workload();
        let mut rng = SmallRng::seed_from_u64(1);
        let parts = w.stratified_multi_split(&[0.6, 0.2, 0.2], &mut rng);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, w.len());
        assert_eq!(parts[0].of_size(3).len(), 12);
    }

    /// A two-query workload file: a path with a multi-labeled middle node
    /// and an edge-labeled edge, and an edge with a wildcard end whose
    /// count is `u64::MAX`.
    const WORKLOAD_JSON: &str = r#"{"queries":[{"graph":"t 3 2\nv 0 0\nv 1 1 2 5\nv 2 0\ne 0 1\ne 1 2 3\n","count":12},{"graph":"t 2 1\nv 0 -1\nv 1 4\ne 0 1\n","count":18446744073709551615}]}"#;

    #[test]
    fn a_workload_file_is_pinned() {
        let w = Workload::from_queries(vec![
            LabeledQuery::new(
                from_text("t 3 2\nv 0 0\nv 1 1 2 5\nv 2 0\ne 0 1\ne 1 2 3\n").unwrap(),
                12,
            ),
            LabeledQuery::new(
                from_text("t 2 1\nv 0 -1\nv 1 4\ne 0 1\n").unwrap(),
                u64::MAX,
            ),
        ]);
        assert_eq!(w.to_json(), WORKLOAD_JSON);
        let back = Workload::from_json(WORKLOAD_JSON).unwrap();
        assert_eq!(back.to_json(), WORKLOAD_JSON);
        assert_eq!(back.queries[0].graph, w.queries[0].graph);
    }

    #[test]
    fn a_workload_error_names_the_query_and_the_field() {
        let err = |json: &str| Workload::from_json(json).unwrap_err();
        assert_eq!(err(r#"{"q":[]}"#), "missing field `queries`");
        assert_eq!(
            err(r#"{"queries":{}}"#),
            "queries: expected array, found object"
        );
        assert_eq!(
            err(r#"{"queries":[{"graph":"t 1 0\nv 0 0\n","count":1},{"count":2}]}"#),
            "query 1: missing field `graph`"
        );
        assert_eq!(
            err(r#"{"queries":[{"graph":"t 2 1\nv 0 0\nv 1 0\ne 0 2\n","count":1}]}"#),
            "query 0: graph: line 4: edge endpoint out of range"
        );
        assert_eq!(
            err(r#"{"queries":[{"graph":"t 1 0\nv 0 0\n","count":-1}]}"#),
            "query 0: count: expected unsigned integer, found integer"
        );
    }
}
