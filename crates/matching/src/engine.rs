//! Shared backtracking engine behind the homomorphism and isomorphism
//! counters. Kept private; use the `count_*` front doors.

use crate::budget::{Budget, BudgetExceeded};
use crate::candidates::CandidateFilter;
use crate::order::{matching_order, MatchingOrder};
use alss_graph::{label_matches, Graph, NodeId, WILDCARD};

/// Immutable per-count context (shareable across worker threads).
pub(crate) struct Context<'a> {
    pub data: &'a Graph,
    pub query: &'a Graph,
    pub filter: CandidateFilter<'a>,
    pub mo: MatchingOrder,
    pub injective: bool,
}

impl<'a> Context<'a> {
    pub fn new(data: &'a Graph, query: &'a Graph, injective: bool) -> Self {
        let filter = CandidateFilter::new(data);
        let mo = matching_order(query, &filter, injective);
        Context {
            data,
            query,
            filter,
            mo,
            injective,
        }
    }

    /// Candidates of the first query node in the order.
    pub fn roots(&self) -> Vec<NodeId> {
        self.filter
            .candidates(self.query, self.mo.order[0], self.injective)
    }
}

/// Per-search telemetry tallies. Plain local integers: incrementing them
/// is negligible next to the candidate-filter probes in the same loop, and
/// they are flushed to the global metrics table once per search.
#[derive(Default)]
pub(crate) struct SearchStats {
    /// Backtracking nodes expanded (calls into `extend`).
    pub nodes_expanded: u64,
    /// Candidates rejected by the anchor edge-label check.
    pub pruned_label: u64,
    /// Candidates rejected by the candidate filter.
    pub pruned_filter: u64,
    /// Candidates rejected by the injectivity (used-node) check.
    pub pruned_injective: u64,
    /// Candidates rejected by a non-anchor backward constraint.
    pub pruned_backward: u64,
}

impl SearchStats {
    /// Add the tallies into the global metrics table.
    pub fn flush(&self) {
        alss_telemetry::add("matching.nodes_expanded", self.nodes_expanded);
        alss_telemetry::add("matching.pruned.label", self.pruned_label);
        alss_telemetry::add("matching.pruned.filter", self.pruned_filter);
        alss_telemetry::add("matching.pruned.injective", self.pruned_injective);
        alss_telemetry::add("matching.pruned.backward", self.pruned_backward);
    }
}

/// Mutable per-worker search state.
pub(crate) struct Search<'a, 'c> {
    ctx: &'c Context<'a>,
    /// Stop at the first complete mapping (an existence check).
    first_only: bool,
    /// Image of `mo.order[i]` for positions `< depth`.
    map: Vec<NodeId>,
    /// Telemetry tallies for this worker.
    pub stats: SearchStats,
}

impl<'a, 'c> Search<'a, 'c> {
    pub fn new(ctx: &'c Context<'a>, first_only: bool) -> Self {
        Search {
            ctx,
            first_only,
            map: vec![0; ctx.query.num_nodes()],
            stats: SearchStats::default(),
        }
    }

    /// Count the completions with the root pinned to `root` (any
    /// non-zero count once one is found, if `first_only`).
    pub fn count_from_root(
        &mut self,
        root: NodeId,
        budget: &Budget,
    ) -> Result<u64, BudgetExceeded> {
        self.map[0] = root;
        self.extend(1, budget)
    }

    #[inline]
    fn used(&self, depth: usize, dv: NodeId) -> bool {
        self.map[..depth].contains(&dv)
    }

    /// Verify `dv` against all backward constraints of position `pos`
    /// except the anchor position `skip`.
    #[inline]
    fn backward_ok(&self, pos: usize, skip: usize, qv: NodeId, dv: NodeId) -> bool {
        let ctx = self.ctx;
        for &j in &ctx.mo.backward[pos] {
            if j == skip {
                continue;
            }
            let qu = ctx.mo.order[j];
            let du = self.map[j];
            match ctx.data.edge_label(du, dv) {
                Some(dl) => {
                    let Some(ql) = ctx.query.edge_label(qu, qv) else {
                        // A backward neighbor is defined by the presence of
                        // this query edge; treat its absence as a dead end.
                        debug_assert!(false, "backward neighbor implies query edge");
                        return false;
                    };
                    if !label_matches(ql, dl) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }

    fn extend(&mut self, pos: usize, budget: &Budget) -> Result<u64, BudgetExceeded> {
        let ctx = self.ctx;
        let n = ctx.query.num_nodes();
        if pos == n {
            return Ok(1);
        }
        budget.charge(1)?;
        self.stats.nodes_expanded += 1;
        let qv = ctx.mo.order[pos];
        let bw = &ctx.mo.backward[pos];
        let mut total: u64 = 0;

        if bw.is_empty() {
            // New connected component (rare; queries are usually connected):
            // scan all feasible data nodes.
            budget.charge(ctx.data.num_nodes() as u64)?;
            for dv in ctx.data.nodes() {
                if !ctx.filter.feasible(ctx.query, qv, dv, ctx.injective) {
                    self.stats.pruned_filter += 1;
                    continue;
                }
                if ctx.injective && self.used(pos, dv) {
                    self.stats.pruned_injective += 1;
                    continue;
                }
                self.map[pos] = dv;
                total = total.saturating_add(self.extend(pos + 1, budget)?);
                if self.first_only && total > 0 {
                    return Ok(total);
                }
            }
            return Ok(total);
        }

        // Anchor on the backward image with the smallest adjacency. `bw`
        // was checked non-empty above, so the fallbacks are dead code kept
        // only to make the path total.
        let Some(&anchor) = bw.iter().min_by_key(|&&j| ctx.data.degree(self.map[j])) else {
            debug_assert!(false, "non-empty backward set");
            return Ok(0);
        };
        let au = self.map[anchor];
        let Some(ql_anchor) = ctx.query.edge_label(ctx.mo.order[anchor], qv) else {
            debug_assert!(false, "anchor implies query edge");
            return Ok(0);
        };

        let neighbors = ctx.data.neighbors(au);
        budget.charge(neighbors.len() as u64)?;
        let edge_labels = ctx.data.neighbor_edge_labels(au);
        for (i, &dv) in neighbors.iter().enumerate() {
            let dl = edge_labels.map(|l| l[i]).unwrap_or(WILDCARD);
            if !label_matches(ql_anchor, dl) {
                self.stats.pruned_label += 1;
                continue;
            }
            if !ctx.filter.feasible(ctx.query, qv, dv, ctx.injective) {
                self.stats.pruned_filter += 1;
                continue;
            }
            if ctx.injective && self.used(pos, dv) {
                self.stats.pruned_injective += 1;
                continue;
            }
            if !self.backward_ok(pos, anchor, qv, dv) {
                self.stats.pruned_backward += 1;
                continue;
            }
            self.map[pos] = dv;
            total = total.saturating_add(self.extend(pos + 1, budget)?);
            if self.first_only && total > 0 {
                return Ok(total);
            }
        }
        Ok(total)
    }
}

/// Record a budget exhaustion in the global metrics table.
pub(crate) fn note_budget_exhausted<T>(res: &Result<T, BudgetExceeded>) {
    if res.is_err() {
        alss_telemetry::add("matching.budget_exhausted", 1);
    }
}

/// Sequential search entry point shared by both semantics. With
/// `first_only` it is an existence check: it stops at the first complete
/// mapping, so a non-zero result means "at least one".
pub(crate) fn count(
    data: &Graph,
    query: &Graph,
    budget: &Budget,
    injective: bool,
    first_only: bool,
) -> Result<u64, BudgetExceeded> {
    if query.num_nodes() == 0 {
        return Ok(1); // the empty mapping
    }
    let _span = alss_telemetry::Span::enter(if first_only {
        "matching.exists"
    } else {
        "matching.count"
    });
    let ctx = Context::new(data, query, injective);
    let roots = ctx.roots();
    let mut search = Search::new(&ctx, first_only);
    let res = (|| {
        budget.charge(roots.len() as u64)?;
        let mut total: u64 = 0;
        for r in roots {
            total = total.saturating_add(search.count_from_root(r, budget)?);
            if first_only && total > 0 {
                break;
            }
        }
        Ok(total)
    })();
    search.stats.flush();
    note_budget_exhausted(&res);
    res
}
