//! Seeded traffic for the serve workloads.
//!
//! Queries are random connected subgraphs of the data graph, drawn with the
//! extractor the workload generator uses, with 4, 8, 16 and 32 nodes mixed
//! evenly. Queries are kept distinct by canonical key. When a candidate's
//! key is already taken, `isomorphism_exists` tells a true duplicate from a
//! 1-WL collision: two non-isomorphic queries that the server's cache would
//! confuse. Both are dropped, so no workload can hit the cache by accident,
//! and collisions are counted and reported.

use alss_datasets::zipf::zipf_probs;
use alss_graph::extract::{extract_query, ExtractOptions};
use alss_graph::io::to_text;
use alss_graph::{canonical_key, CanonicalKey, Graph, GraphBuilder};
use alss_matching::{isomorphism_exists, Budget};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Served query sizes, mixed evenly.
pub const SIZES: [usize; 4] = [4, 8, 16, 32];
/// One unique query in this many is sent with `deadline_ms: 0`.
pub const DEADLINE0_EVERY: usize = 8;
/// `serve_repeat`: isomorphism classes that are re-submitted.
pub const CLASSES: usize = 256;
/// `serve_repeat`: share of requests that re-submit a class.
pub const REPEAT_SHARE: f64 = 0.9;
/// `serve_repeat`: Zipf exponent of class popularity.
pub const ZIPF_S: f64 = 1.0;
/// `serve_unique`: distinct queries sent before measuring. More than the
/// server's default cache holds (4096), so every later insert evicts.
pub const CACHE_FILL: usize = 4608;
/// Expansion budget of one duplicate-or-collision check.
const ISO_BUDGET: u64 = 1_000_000;
/// Extraction attempts before the query space counts as exhausted.
const MAX_ATTEMPTS: usize = 1_000_000;

/// The traffic mix of a serve workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Every query distinct (`serve_unique`).
    Unique,
    /// Mostly re-submitted isomorphism classes (`serve_repeat`).
    Repeat,
}

/// Distinct random queries.
pub struct QuerySource<'g> {
    data: &'g Graph,
    rng: SmallRng,
    opts: ExtractOptions,
    seen: HashMap<CanonicalKey, Graph>,
    /// Candidates dropped as isomorphic to an earlier query.
    pub duplicates: usize,
    /// Candidates dropped because their canonical key equals that of a
    /// non-isomorphic earlier query (a 1-WL collision).
    pub wl_collisions: usize,
}

impl<'g> QuerySource<'g> {
    /// A source over `data`, seeded.
    pub fn new(data: &'g Graph, seed: u64) -> Self {
        QuerySource {
            data,
            rng: SmallRng::seed_from_u64(seed),
            opts: ExtractOptions {
                induced: false,
                extra_edge_prob: 0.4,
                wildcard_prob: 0.0,
                drop_edge_labels: false,
            },
            seen: HashMap::new(),
            duplicates: 0,
            wl_collisions: 0,
        }
    }

    /// A `size`-node query whose canonical key no earlier query has.
    pub fn next(&mut self, size: usize) -> Graph {
        for _ in 0..MAX_ATTEMPTS {
            let Some(q) = extract_query(self.data, size, &self.opts, &mut self.rng) else {
                continue;
            };
            let key = canonical_key(&q);
            match self.seen.get(&key) {
                None => {
                    self.seen.insert(key, q.clone());
                    return q;
                }
                Some(prev) => {
                    if isomorphism_exists(prev, &q, &Budget::new(ISO_BUDGET)) == Ok(true) {
                        self.duplicates += 1;
                    } else {
                        self.wl_collisions += 1;
                    }
                }
            }
        }
        panic!("no new distinct {size}-node query after {MAX_ATTEMPTS} attempts");
    }
}

/// `g` with its nodes renumbered by a random permutation.
pub fn permuted(g: &Graph, rng: &mut SmallRng) -> Graph {
    let mut perm: Vec<u32> = g.nodes().collect();
    perm.shuffle(rng);
    let mut b = GraphBuilder::new(g.num_nodes());
    for v in g.nodes() {
        let p = perm[v as usize];
        b.set_label(p, g.label(v));
        for &l in g.extra_labels(v) {
            b.add_extra_label(p, l);
        }
    }
    for e in g.edges() {
        b.add_labeled_edge(perm[e.u as usize], perm[e.v as usize], e.label);
    }
    b.build()
}

/// One request the generator will send.
#[derive(Clone, Debug)]
pub struct Planned {
    /// Query text (`alss_graph::io` format).
    pub text: String,
    /// Isomorphism class: a cached answer must repeat a model answer of
    /// this class.
    pub class: usize,
    /// Sent with `deadline_ms: 0`, so the fallback must answer it.
    pub deadline0: bool,
}

fn planned(g: &Graph, class: usize, deadline0: bool) -> Planned {
    Planned {
        text: to_text(g),
        class,
        deadline0,
    }
}

/// The seeded request stream of one serve workload.
pub struct Traffic<'g> {
    mix: Mix,
    src: QuerySource<'g>,
    rng: SmallRng,
    classes: Vec<Graph>,
    /// Cumulative Zipf distribution over `classes`.
    cdf: Vec<f64>,
    /// Unique queries issued so far (their class ids follow the classes).
    fresh: usize,
}

impl<'g> Traffic<'g> {
    /// The stream for `mix` over `data`, seeded.
    pub fn new(mix: Mix, data: &'g Graph, seed: u64) -> Self {
        let mut src = QuerySource::new(data, seed);
        let classes = match mix {
            Mix::Unique => Vec::new(),
            Mix::Repeat => (0..CLASSES)
                .map(|i| src.next(SIZES[i % SIZES.len()]))
                .collect(),
        };
        let cdf = zipf_probs(CLASSES, ZIPF_S)
            .into_iter()
            .scan(0.0, |acc, p| {
                *acc += p;
                Some(*acc)
            })
            .collect();
        Traffic {
            mix,
            src,
            rng: SmallRng::seed_from_u64(seed ^ 0x7AFF_1C00),
            classes,
            cdf,
            fresh: 0,
        }
    }

    /// Requests sent before measuring: `serve_unique` fills the cache past
    /// capacity, `serve_repeat` submits every class once.
    pub fn warmup(&mut self) -> Vec<Planned> {
        match self.mix {
            Mix::Unique => (0..CACHE_FILL).map(|_| self.unique(false)).collect(),
            Mix::Repeat => self
                .classes
                .iter()
                .enumerate()
                .map(|(c, g)| planned(g, c, false))
                .collect(),
        }
    }

    /// The next `n` measured requests.
    pub fn take(&mut self, n: usize) -> Vec<Planned> {
        (0..n).map(|_| self.next_request()).collect()
    }

    /// The query source, for its duplicate and collision counts.
    pub fn source(&self) -> &QuerySource<'g> {
        &self.src
    }

    fn next_request(&mut self) -> Planned {
        if self.mix == Mix::Repeat && self.rng.gen_bool(REPEAT_SHARE) {
            let u: f64 = self.rng.gen();
            let c = self.cdf.partition_point(|&p| p <= u).min(CLASSES - 1);
            let g = permuted(&self.classes[c], &mut self.rng);
            return planned(&g, c, false);
        }
        let deadline0 = (self.fresh + 1) % DEADLINE0_EVERY == 0;
        self.unique(deadline0)
    }

    fn unique(&mut self, deadline0: bool) -> Planned {
        let size = SIZES[self.rng.gen_range(0..SIZES.len())];
        let g = self.src.next(size);
        self.fresh += 1;
        planned(&g, CLASSES + self.fresh, deadline0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alss_graph::io::from_text;

    fn data() -> Graph {
        alss_datasets::by_name("yeast", 0.2, 1).unwrap()
    }

    #[test]
    fn permuted_copy_is_isomorphic_with_the_same_key() {
        let g = data();
        let mut src = QuerySource::new(&g, 3);
        let mut rng = SmallRng::seed_from_u64(9);
        for size in SIZES {
            let q = src.next(size);
            let p = permuted(&q, &mut rng);
            assert_eq!(canonical_key(&q), canonical_key(&p));
            assert_eq!(
                isomorphism_exists(&q, &p, &Budget::new(ISO_BUDGET)),
                Ok(true)
            );
        }
    }

    #[test]
    fn unique_queries_are_distinct_and_seeded() {
        let g = data();
        let texts = |seed| Traffic::new(Mix::Unique, &g, seed).take(200);
        let a = texts(5);
        let keys: std::collections::HashSet<_> = a
            .iter()
            .map(|p| canonical_key(&from_text(&p.text).unwrap()))
            .collect();
        assert_eq!(keys.len(), a.len());
        let b = texts(5);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert_ne!(texts(6)[0].text, a[0].text);
        // Exactly one in eight carries deadline 0.
        assert_eq!(a.iter().filter(|p| p.deadline0).count(), 200 / DEADLINE0_EVERY);
    }

    #[test]
    fn repeat_mix_resubmits_classes() {
        let g = data();
        let mut t = Traffic::new(Mix::Repeat, &g, 7);
        assert_eq!(t.warmup().len(), CLASSES);
        let reqs = t.take(2000);
        let repeats = reqs.iter().filter(|p| p.class < CLASSES).count();
        assert!((1700..1900).contains(&repeats), "{repeats} repeats");
        assert!(reqs.iter().all(|p| !(p.deadline0 && p.class < CLASSES)));
        // Zipf: class 0 is more popular than class 9.
        let c0 = reqs.iter().filter(|p| p.class == 0).count();
        let c9 = reqs.iter().filter(|p| p.class == 9).count();
        assert!(c0 > c9, "{c0} vs {c9}");
    }
}
