//! Top-k minimum-cost Steiner tree enumeration.
//!
//! The backward module "adopts a Steiner Tree-based technique to select, for
//! each configuration, the top-k paths joining the involved database schema
//! elements", using "an extension of a previous algorithm [Ding et al., ICDE
//! 2007] that works at the schema level ... and that has in place a mechanism
//! for efficiently discarding Steiner Trees that are sub-trees of others that
//! have been previously computed" (paper §1, §3).
//!
//! The implementation is DPBF (dynamic programming, best first): states are
//! `(vertex, terminal-subset)` pairs explored in cost order, with *grow*
//! (extend by one edge) and *merge* (join two subtrees rooted at the same
//! vertex with disjoint terminal sets) transitions. For top-k enumeration,
//! up to `k` entries are retained per state (Ding et al.'s generalization),
//! and emitted trees that merely extend an already-emitted tree with extra
//! edges (redundant super-trees: same join path plus gratuitous joins) are
//! suppressed.
//!
//! Two entry points implement the same enumeration:
//!
//! - [`top_k_steiner`] is the retained reference: heap of owned entries,
//!   hash-mapped state buckets, no pruning beyond the per-state cap.
//! - [`top_k_steiner_with`] is the hot path: flat state tables, an index
//!   heap over an entry arena with pooled edge lists (all reused via
//!   [`SteinerScratch`]), plus a bound-based truncation of dominated
//!   partial trees — entries headed for an already-closed state bucket
//!   are never pushed. Its output is pinned **bitwise** to the reference
//!   (same tree edges, same cost bits, same tie order) by
//!   `tests/steiner_properties.rs`, and in debug builds each call is
//!   additionally certified against the 1-best lower bound from
//!   [`steiner_lower_bound`].

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use crate::tree::SteinerTree;

/// Maximum number of terminals (bitmask width).
pub const MAX_TERMINALS: usize = 16;

/// Tuning knobs for the enumeration.
#[derive(Debug, Clone)]
pub struct SteinerConfig {
    /// How many trees to return.
    pub k: usize,
    /// Hard cap on heap pops (guards pathological graphs). 0 = default.
    pub max_expansions: usize,
    /// Drop emitted trees that are super-trees of earlier emitted trees.
    pub suppress_supertrees: bool,
}

impl Default for SteinerConfig {
    fn default() -> Self {
        SteinerConfig {
            k: 5,
            max_expansions: 2_000_000,
            suppress_supertrees: true,
        }
    }
}

impl SteinerConfig {
    /// Config returning `k` trees with default limits.
    pub fn top_k(k: usize) -> SteinerConfig {
        SteinerConfig {
            k,
            ..Default::default()
        }
    }
}

#[derive(Debug, Clone)]
struct QueueEntry {
    cost: f64,
    node: NodeId,
    mask: u32,
    /// Edge indexes of the partial tree.
    edges: Vec<usize>,
}

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for QueueEntry {}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by cost; the tie-breaks make this a *total* order (down
        // to the edge lists), so the pop sequence is independent of push
        // order and the scratch-based fast path can reproduce it exactly.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.edges.len().cmp(&self.edges.len()))
            .then_with(|| other.node.cmp(&self.node))
            .then_with(|| other.mask.cmp(&self.mask))
            .then_with(|| other.edges.cmp(&self.edges))
    }
}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Enumerate up to `cfg.k` minimum-cost Steiner trees connecting `terminals`,
/// in non-decreasing cost order.
///
/// Duplicate terminals are collapsed. A single terminal yields one empty
/// tree. Returns [`GraphError::Disconnected`] when the terminals do not share
/// a component.
pub fn top_k_steiner(
    graph: &Graph,
    terminals: &[NodeId],
    cfg: &SteinerConfig,
) -> Result<Vec<SteinerTree>, GraphError> {
    let terms = canonical_terminals(graph, terminals)?;
    if cfg.k == 0 {
        return Ok(Vec::new());
    }
    if terms.len() == 1 {
        return Ok(vec![SteinerTree::new(Vec::new(), 0.0, terms)]);
    }
    if !graph.connects(&terms) {
        return Err(GraphError::Disconnected);
    }

    let full: u32 = (1u32 << terms.len()) - 1;
    let term_bit: HashMap<NodeId, u32> = terms
        .iter()
        .enumerate()
        .map(|(i, t)| (*t, 1u32 << i))
        .collect();

    let mut heap: BinaryHeap<QueueEntry> = BinaryHeap::new();
    for t in &terms {
        heap.push(QueueEntry {
            cost: 0.0,
            node: *t,
            mask: term_bit[t],
            edges: Vec::new(),
        });
    }

    // Popped entries per (node, mask), capped at k each.
    let mut popped: HashMap<(NodeId, u32), Vec<QueueEntry>> = HashMap::new();
    let mut results: Vec<SteinerTree> = Vec::new();
    let max_expansions = if cfg.max_expansions == 0 {
        SteinerConfig::default().max_expansions
    } else {
        cfg.max_expansions
    };
    let mut pops = 0usize;

    while let Some(entry) = heap.pop() {
        pops += 1;
        if pops > max_expansions {
            break;
        }
        let state = (entry.node, entry.mask);
        let bucket = popped.entry(state).or_default();
        if bucket.len() >= cfg.k {
            continue;
        }
        // Skip exact duplicates (same edge set reached twice).
        if bucket.iter().any(|e| e.edges == entry.edges) {
            continue;
        }
        bucket.push(entry.clone());

        if entry.mask == full {
            let tree = to_tree(graph, &entry, &terms);
            if is_valid_tree(&tree) {
                let dup = results.iter().any(|r| r.edges() == tree.edges());
                let redundant =
                    cfg.suppress_supertrees && results.iter().any(|r| r.is_subtree_of(&tree));
                if !dup && !redundant {
                    results.push(tree);
                    if results.len() >= cfg.k {
                        break;
                    }
                }
            }
            continue; // growing a complete tree only adds dead weight
        }

        // Grow transitions.
        for &(u, ei) in graph.neighbors(entry.node) {
            if entry.edges.contains(&ei) {
                continue;
            }
            let mut edges = entry.edges.clone();
            edges.push(ei);
            let mask = entry.mask | term_bit.get(&u).copied().unwrap_or(0);
            heap.push(QueueEntry {
                cost: entry.cost + graph.edge(ei).weight,
                node: u,
                mask,
                edges,
            });
        }

        // Merge transitions with previously popped entries at the same node
        // whose terminal sets are disjoint.
        let merge_partners: Vec<QueueEntry> = popped
            .iter()
            .filter(|((n, m), _)| *n == entry.node && m & entry.mask == 0)
            .flat_map(|(_, es)| es.iter().cloned())
            .collect();
        for other in merge_partners {
            if let Some(edges) = union_if_tree(graph, &entry.edges, &other.edges, entry.node) {
                heap.push(QueueEntry {
                    cost: entry.cost + other.cost,
                    node: entry.node,
                    mask: entry.mask | other.mask,
                    edges,
                });
            }
        }
    }

    Ok(results)
}

/// Sort, dedup, and validate a terminal list; both enumeration entry points
/// and the lower bound share this so error precedence cannot drift.
fn canonical_terminals(graph: &Graph, terminals: &[NodeId]) -> Result<Vec<NodeId>, GraphError> {
    let mut terms: Vec<NodeId> = terminals.to_vec();
    terms.sort();
    terms.dedup();
    if terms.is_empty() {
        return Err(GraphError::NoTerminals);
    }
    for t in &terms {
        if t.0 as usize >= graph.node_count() {
            return Err(GraphError::UnknownNode(t.0));
        }
    }
    if terms.len() > MAX_TERMINALS {
        return Err(GraphError::TooManyTerminals {
            max: MAX_TERMINALS,
            got: terms.len(),
        });
    }
    Ok(terms)
}

/// Union two partial-tree edge sets rooted at `root`; `None` when the union
/// would contain a cycle (shared edge, or node shared anywhere but the root).
fn union_if_tree(graph: &Graph, a: &[usize], b: &[usize], root: NodeId) -> Option<Vec<usize>> {
    let mut edges: Vec<usize> = a.to_vec();
    for e in b {
        if edges.contains(e) {
            return None; // shared edge => cycle
        }
        edges.push(*e);
    }
    // Tree check: |nodes| must equal |edges| + 1.
    let mut nodes: Vec<NodeId> = edges
        .iter()
        .flat_map(|&ei| {
            let e = graph.edge(ei);
            [e.a, e.b]
        })
        .collect();
    nodes.push(root);
    nodes.sort();
    nodes.dedup();
    if nodes.len() == edges.len() + 1 {
        Some(edges)
    } else {
        None
    }
}

fn to_tree(graph: &Graph, entry: &QueueEntry, terms: &[NodeId]) -> SteinerTree {
    let keys: Vec<(NodeId, NodeId)> = entry.edges.iter().map(|&ei| graph.edge(ei).key()).collect();
    SteinerTree::new(keys, entry.cost, terms.to_vec())
}

fn is_valid_tree(tree: &SteinerTree) -> bool {
    // nodes() includes terminals; a tree over its nodes has |E| = |V| - 1.
    let n = tree.nodes().len();
    n == tree.len() + 1
}

/// Sentinel index for "no entry" in the scratch's arena-index vectors.
const NONE: u32 = u32::MAX;

/// Largest flat `node x terminal-subset` state table the scratch path will
/// allocate; beyond this [`top_k_steiner_with`] falls back to the reference
/// (hash-mapped states) rather than zero-fill megabytes per call.
const MAX_FLAT_STATES: usize = 1 << 18;

/// One partial tree in the scratch arena. Edge lists live as
/// `[estart, estart + elen)` slices of the shared edge pool; `next` chains
/// popped entries of the same state into a singly linked list.
#[derive(Debug, Clone, Copy)]
struct ArenaEntry {
    cost: f64,
    node: u32,
    mask: u32,
    estart: u32,
    elen: u32,
    next: u32,
}

/// Reusable flat buffers for [`top_k_steiner_with`] and
/// [`steiner_lower_bound_with`]: the entry arena and pooled edge lists, the
/// frontier index heap, per-state popped lists, the per-node merge index,
/// terminal bitmasks, epoch-stamped visited marks for the cycle and
/// tree-validity checks, the canonical edge keys of a full-mask candidate,
/// and the 1-best pass's distance/settled tables.
///
/// One scratch serves any number of sequential enumerations; buffers are
/// sized on entry and never shrunk, so a warm scratch allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct SteinerScratch {
    entries: Vec<ArenaEntry>,
    edge_pool: Vec<u32>,
    heap: Vec<u32>,
    popped_head: Vec<u32>,
    popped_len: Vec<u32>,
    node_masks: Vec<Vec<u32>>,
    term_bit: Vec<u32>,
    union_mark: Vec<u32>,
    union_epoch: u32,
    tree_keys: Vec<(NodeId, NodeId)>,
    lb_dist: Vec<f64>,
    lb_settled: Vec<bool>,
    lb_node_masks: Vec<Vec<u32>>,
    lb_heap: Vec<(f64, u32)>,
}

impl SteinerScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> SteinerScratch {
        SteinerScratch::default()
    }

    /// Size and clear every buffer for a graph of `n` nodes and `slots`
    /// flat states, and load the terminal bitmask table.
    fn prepare(&mut self, n: usize, slots: usize, terms: &[NodeId]) {
        self.entries.clear();
        self.edge_pool.clear();
        self.heap.clear();
        self.popped_head.clear();
        self.popped_head.resize(slots, NONE);
        self.popped_len.clear();
        self.popped_len.resize(slots, 0);
        if self.node_masks.len() < n {
            self.node_masks.resize_with(n, Vec::new);
        }
        for masks in &mut self.node_masks[..n] {
            masks.clear();
        }
        self.term_bit.clear();
        self.term_bit.resize(n, 0);
        for (i, t) in terms.iter().enumerate() {
            self.term_bit[t.0 as usize] = 1u32 << i;
        }
        if self.union_mark.len() < n {
            self.union_mark.resize(n, 0);
        }
    }

    fn push_entry(&mut self, cost: f64, node: u32, mask: u32, estart: u32, elen: u32) -> u32 {
        let idx = self.entries.len() as u32;
        self.entries.push(ArenaEntry {
            cost,
            node,
            mask,
            estart,
            elen,
            next: NONE,
        });
        idx
    }

    /// Allocate a grow child: parent's edge slice copied within the pool,
    /// plus one new edge.
    fn alloc_child(
        &mut self,
        estart: u32,
        elen: u32,
        edge: u32,
        cost: f64,
        node: u32,
        mask: u32,
    ) -> u32 {
        let start = self.edge_pool.len() as u32;
        self.edge_pool
            .extend_from_within(estart as usize..(estart + elen) as usize);
        self.edge_pool.push(edge);
        self.push_entry(cost, node, mask, start, elen + 1)
    }

    fn pool_slice(&self, estart: u32, elen: u32) -> &[u32] {
        &self.edge_pool[estart as usize..(estart + elen) as usize]
    }

    /// "`a` pops before `b`": mirrors [`QueueEntry`]'s total order exactly
    /// (cost, then edge count, node, mask, and lexicographic edge list).
    fn pops_before(&self, a: u32, b: u32) -> bool {
        let x = &self.entries[a as usize];
        let y = &self.entries[b as usize];
        match x.cost.partial_cmp(&y.cost) {
            Some(Ordering::Less) => return true,
            Some(Ordering::Greater) => return false,
            _ => {}
        }
        if x.elen != y.elen {
            return x.elen < y.elen;
        }
        if x.node != y.node {
            return x.node < y.node;
        }
        if x.mask != y.mask {
            return x.mask < y.mask;
        }
        self.pool_slice(x.estart, x.elen) < self.pool_slice(y.estart, y.elen)
    }

    fn heap_push(&mut self, idx: u32) {
        self.heap.push(idx);
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.pops_before(self.heap[i], self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_pop(&mut self) -> Option<u32> {
        let len = self.heap.len();
        if len == 0 {
            return None;
        }
        self.heap.swap(0, len - 1);
        let top = self.heap.pop();
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let left = 2 * i + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut best = left;
            if right < len && self.pops_before(self.heap[right], self.heap[left]) {
                best = right;
            }
            if self.pops_before(self.heap[best], self.heap[i]) {
                self.heap.swap(i, best);
                i = best;
            } else {
                break;
            }
        }
        top
    }

    /// Does the state's popped list already hold this exact edge list?
    fn state_has_duplicate(&self, state: usize, estart: u32, elen: u32) -> bool {
        let needle = self.pool_slice(estart, elen);
        let mut p = self.popped_head[state];
        while p != NONE {
            let e = &self.entries[p as usize];
            if e.elen == elen && self.pool_slice(e.estart, e.elen) == needle {
                return true;
            }
            p = e.next;
        }
        false
    }

    /// Next epoch for the visited-mark table, resetting on wraparound.
    fn next_union_epoch(&mut self) -> u32 {
        if self.union_epoch == u32::MAX {
            for m in &mut self.union_mark {
                *m = 0;
            }
            self.union_epoch = 0;
        }
        self.union_epoch += 1;
        self.union_epoch
    }

    /// Pool-allocating twin of [`union_if_tree`]: append `a ++ b` to the
    /// edge pool if the union is acyclic and spans `|edges| + 1` nodes
    /// (counted with epoch-stamped marks instead of a sort/dedup pass).
    /// Truncates the pool back and returns `None` on failure.
    fn union_into_pool(
        &mut self,
        graph: &Graph,
        a: (u32, u32),
        b: (u32, u32),
        root: u32,
    ) -> Option<(u32, u32)> {
        let start = self.edge_pool.len();
        self.edge_pool
            .extend_from_within(a.0 as usize..(a.0 + a.1) as usize);
        // `b`'s edges are internally distinct, so checking each against
        // `a`'s half alone matches the reference's growing-list check.
        for i in b.0..b.0 + b.1 {
            let e = self.edge_pool[i as usize];
            if self.edge_pool[start..start + a.1 as usize].contains(&e) {
                self.edge_pool.truncate(start);
                return None; // shared edge => cycle
            }
            self.edge_pool.push(e);
        }
        let len = self.edge_pool.len() - start;
        let epoch = self.next_union_epoch();
        let mut nodes = 0usize;
        for i in start..start + len {
            let edge = graph.edge(self.edge_pool[i] as usize);
            for v in [edge.a.0, edge.b.0] {
                if self.union_mark[v as usize] != epoch {
                    self.union_mark[v as usize] = epoch;
                    nodes += 1;
                }
            }
        }
        if self.union_mark[root as usize] != epoch {
            nodes += 1;
        }
        if nodes == len + 1 {
            Some((start as u32, len as u32))
        } else {
            self.edge_pool.truncate(start);
            None
        }
    }

    /// Load a full-mask candidate's canonical edge keys (sorted, deduplicated)
    /// into `tree_keys` and decide whether the reference would emit its
    /// tree: valid (edges plus terminals span `|edges| + 1` nodes, counted
    /// with the epoch marks) and not already emitted. Allocates nothing;
    /// the caller builds a [`SteinerTree`] only for a kept candidate.
    ///
    /// The reference's super-tree check is not needed here: every leaf of
    /// an emitted tree is a terminal (a grow moves the root, a merge gives
    /// the root degree >= 2, and full-mask entries are never grown), and a
    /// tree strictly containing another tree over the same terminals would
    /// need a leaf outside it. So a candidate is a super-tree of an emitted
    /// tree only when their edge sets are equal, which the duplicate check
    /// already rejects.
    fn keeps_full_tree(
        &mut self,
        graph: &Graph,
        (estart, elen): (u32, u32),
        terms: &[NodeId],
        results: &[SteinerTree],
    ) -> bool {
        self.tree_keys.clear();
        for i in estart..estart + elen {
            let ei = self.edge_pool[i as usize];
            self.tree_keys.push(graph.edge(ei as usize).key());
        }
        self.tree_keys.sort_unstable();
        self.tree_keys.dedup();
        let epoch = self.next_union_epoch();
        let keys = &self.tree_keys;
        let mut nodes = 0usize;
        let ends = keys.iter().flat_map(|&(a, b)| [a, b]);
        for v in ends.chain(terms.iter().copied()) {
            if self.union_mark[v.0 as usize] != epoch {
                self.union_mark[v.0 as usize] = epoch;
                nodes += 1;
            }
        }
        nodes == keys.len() + 1 && !results.iter().any(|r| r.edges() == keys.as_slice())
    }

    /// 1-best DPBF (Ding et al.): plain Dijkstra over the flat
    /// `(node, mask)` state space, returning the cost of the first settled
    /// full-mask state — the exact optimal Steiner tree cost. Requires
    /// [`SteinerScratch::prepare`] to have loaded `term_bit`.
    fn one_best_full_cost(
        &mut self,
        graph: &Graph,
        terms: &[NodeId],
        slots: usize,
        stride: u32,
    ) -> Option<f64> {
        self.lb_dist.clear();
        self.lb_dist.resize(slots, f64::INFINITY);
        self.lb_settled.clear();
        self.lb_settled.resize(slots, false);
        let n = graph.node_count();
        if self.lb_node_masks.len() < n {
            self.lb_node_masks.resize_with(n, Vec::new);
        }
        for masks in &mut self.lb_node_masks[..n] {
            masks.clear();
        }
        self.lb_heap.clear();
        let full = stride - 1;
        for (i, t) in terms.iter().enumerate() {
            let state = t.0 * stride + (1u32 << i);
            self.lb_dist[state as usize] = 0.0;
            lb_push(&mut self.lb_heap, (0.0, state));
        }
        while let Some((cost, state)) = lb_pop(&mut self.lb_heap) {
            if self.lb_settled[state as usize] {
                continue;
            }
            self.lb_settled[state as usize] = true;
            let node = state / stride;
            let mask = state % stride;
            if mask == full {
                return Some(cost);
            }
            self.lb_node_masks[node as usize].push(mask);
            for &(u, ei) in graph.neighbors(NodeId(node)) {
                let nm = mask | self.term_bit[u.0 as usize];
                let ns = u.0 * stride + nm;
                let nc = cost + graph.edge(ei).weight;
                if nc < self.lb_dist[ns as usize] {
                    self.lb_dist[ns as usize] = nc;
                    lb_push(&mut self.lb_heap, (nc, ns));
                }
            }
            let settled_here = self.lb_node_masks[node as usize].len();
            for mi in 0..settled_here {
                let m2 = self.lb_node_masks[node as usize][mi];
                if m2 & mask != 0 {
                    continue;
                }
                let ns = node * stride + (mask | m2);
                let nc = cost + self.lb_dist[(node * stride + m2) as usize];
                if nc < self.lb_dist[ns as usize] {
                    self.lb_dist[ns as usize] = nc;
                    lb_push(&mut self.lb_heap, (nc, ns));
                }
            }
        }
        None
    }
}

/// Min-order for the 1-best pass's `(cost, state)` heap.
fn lb_before(a: (f64, u32), b: (f64, u32)) -> bool {
    match a.0.partial_cmp(&b.0) {
        Some(Ordering::Less) => true,
        Some(Ordering::Greater) => false,
        _ => a.1 < b.1,
    }
}

fn lb_push(heap: &mut Vec<(f64, u32)>, item: (f64, u32)) {
    heap.push(item);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if lb_before(heap[i], heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

fn lb_pop(heap: &mut Vec<(f64, u32)>) -> Option<(f64, u32)> {
    let len = heap.len();
    if len == 0 {
        return None;
    }
    heap.swap(0, len - 1);
    let top = heap.pop();
    let len = heap.len();
    let mut i = 0;
    loop {
        let left = 2 * i + 1;
        if left >= len {
            break;
        }
        let right = left + 1;
        let mut best = left;
        if right < len && lb_before(heap[right], heap[left]) {
            best = right;
        }
        if lb_before(heap[best], heap[i]) {
            heap.swap(i, best);
            i = best;
        } else {
            break;
        }
    }
    top
}

/// Exact minimum Steiner tree cost for `terminals`, computed by the classic
/// 1-best DPBF pass (Ding et al.) — the certified lower bound used to
/// validate [`top_k_steiner_with`]'s pruning: every tree the enumeration
/// emits must cost at least this much.
///
/// Accepts the same inputs and returns the same errors as
/// [`top_k_steiner`]; a single terminal costs `0.0`.
pub fn steiner_lower_bound(graph: &Graph, terminals: &[NodeId]) -> Result<f64, GraphError> {
    steiner_lower_bound_with(graph, terminals, &mut SteinerScratch::new())
}

/// [`steiner_lower_bound`] with caller-provided scratch buffers.
pub fn steiner_lower_bound_with(
    graph: &Graph,
    terminals: &[NodeId],
    scratch: &mut SteinerScratch,
) -> Result<f64, GraphError> {
    let terms = canonical_terminals(graph, terminals)?;
    if terms.len() == 1 {
        return Ok(0.0);
    }
    if !graph.connects(&terms) {
        return Err(GraphError::Disconnected);
    }
    let stride = 1u32 << terms.len();
    let slots = graph.node_count() * stride as usize;
    if slots > MAX_FLAT_STATES {
        // State table too large for the flat pass; the reference's 1-best
        // enumeration computes the same optimum.
        let trees = top_k_steiner(graph, &terms, &SteinerConfig::top_k(1))?;
        return Ok(trees.first().map(|t| t.cost()).unwrap_or(f64::INFINITY));
    }
    scratch.prepare(graph.node_count(), slots, &terms);
    Ok(scratch
        .one_best_full_cost(graph, &terms, slots, stride)
        .unwrap_or(f64::INFINITY))
}

/// [`top_k_steiner`] through reusable scratch buffers and an admissible
/// prune — the backward pass's hot path, bit-identical to the reference.
///
/// Same enumeration, two mechanical differences:
///
/// - **Flat scratch**: states live in `node x subset` tables, partial-tree
///   edge lists in a shared pool, and the frontier in an index heap — all
///   reused across calls through `scratch` (see [`SteinerScratch`]).
/// - **Dominance truncation**: a state bucket that has already popped `k`
///   entries is *closed* — the best-first order certifies every later
///   arrival costs at least the bucket's k-th pop, so grow/merge children
///   headed for a closed bucket are dominated and never pushed. The
///   reference pushes them and discards them at pop with no other effect,
///   so results, ties, and score bits are untouched; only the pop count
///   compared against `cfg.max_expansions` differs (the pruned path skips
///   the no-op pops, so it can only explore *further* within the cap).
///
/// In debug builds the result is certified against
/// [`steiner_lower_bound`]: no emitted tree may undercut the exact 1-best
/// optimum.
///
/// Graphs whose flat state table would exceed an internal cap delegate to
/// the reference wholesale (identical output, no scratch reuse).
pub fn top_k_steiner_with(
    graph: &Graph,
    terminals: &[NodeId],
    cfg: &SteinerConfig,
    scratch: &mut SteinerScratch,
) -> Result<Vec<SteinerTree>, GraphError> {
    let terms = canonical_terminals(graph, terminals)?;
    if cfg.k == 0 {
        return Ok(Vec::new());
    }
    if terms.len() == 1 {
        return Ok(vec![SteinerTree::new(Vec::new(), 0.0, terms)]);
    }
    if !graph.connects(&terms) {
        return Err(GraphError::Disconnected);
    }

    let n = graph.node_count();
    let stride = 1u32 << terms.len();
    let slots = n * stride as usize;
    if slots > MAX_FLAT_STATES {
        return top_k_steiner(graph, &terms, cfg);
    }
    let full: u32 = stride - 1;
    scratch.prepare(n, slots, &terms);

    #[cfg(debug_assertions)]
    let certified_bound = scratch.one_best_full_cost(graph, &terms, slots, stride);

    for (i, t) in terms.iter().enumerate() {
        let estart = scratch.edge_pool.len() as u32;
        let idx = scratch.push_entry(0.0, t.0, 1u32 << i, estart, 0);
        scratch.heap_push(idx);
    }

    let max_expansions = if cfg.max_expansions == 0 {
        SteinerConfig::default().max_expansions
    } else {
        cfg.max_expansions
    };
    let k = cfg.k.min(u32::MAX as usize) as u32;
    let mut results: Vec<SteinerTree> = Vec::new();
    let mut pops = 0usize;

    while let Some(idx) = scratch.heap_pop() {
        pops += 1;
        if pops > max_expansions {
            break;
        }
        let entry = scratch.entries[idx as usize];
        let state = entry.node as usize * stride as usize + entry.mask as usize;
        if scratch.popped_len[state] >= k {
            continue;
        }
        if scratch.state_has_duplicate(state, entry.estart, entry.elen) {
            continue;
        }
        scratch.entries[idx as usize].next = scratch.popped_head[state];
        scratch.popped_head[state] = idx;
        scratch.popped_len[state] += 1;
        if scratch.popped_len[state] == 1 && entry.mask != full {
            // First pop of this state: index it for merge scans. Full-mask
            // states are never merge partners (no disjoint mask exists).
            scratch.node_masks[entry.node as usize].push(entry.mask);
        }

        if entry.mask == full {
            let span = (entry.estart, entry.elen);
            if scratch.keeps_full_tree(graph, span, &terms, &results) {
                let keys = scratch.tree_keys.clone();
                results.push(SteinerTree::new(keys, entry.cost, terms.clone()));
                if results.len() >= cfg.k {
                    break;
                }
            }
            continue; // growing a complete tree only adds dead weight
        }

        // Grow transitions.
        for &(u, ei) in graph.neighbors(NodeId(entry.node)) {
            let ei = ei as u32;
            if scratch.pool_slice(entry.estart, entry.elen).contains(&ei) {
                continue;
            }
            let mask = entry.mask | scratch.term_bit[u.0 as usize];
            let target = u.0 as usize * stride as usize + mask as usize;
            if scratch.popped_len[target] >= k {
                continue; // dominated: the reference would pop-skip it
            }
            let cost = entry.cost + graph.edge(ei as usize).weight;
            let child = scratch.alloc_child(entry.estart, entry.elen, ei, cost, u.0, mask);
            scratch.heap_push(child);
        }

        // Merge transitions with previously popped entries at the same node
        // whose terminal sets are disjoint.
        let partner_masks = scratch.node_masks[entry.node as usize].len();
        for mi in 0..partner_masks {
            let m2 = scratch.node_masks[entry.node as usize][mi];
            if m2 & entry.mask != 0 {
                continue;
            }
            let merged_mask = entry.mask | m2;
            let target = entry.node as usize * stride as usize + merged_mask as usize;
            if scratch.popped_len[target] >= k {
                continue; // dominated, as above
            }
            let partner_state = entry.node as usize * stride as usize + m2 as usize;
            let mut p = scratch.popped_head[partner_state];
            while p != NONE {
                let other = scratch.entries[p as usize];
                p = other.next;
                if let Some((estart, elen)) = scratch.union_into_pool(
                    graph,
                    (entry.estart, entry.elen),
                    (other.estart, other.elen),
                    entry.node,
                ) {
                    let child = scratch.push_entry(
                        entry.cost + other.cost,
                        entry.node,
                        merged_mask,
                        estart,
                        elen,
                    );
                    scratch.heap_push(child);
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    if let Some(bound) = certified_bound {
        // Admissibility certificate: every emitted tree is a real Steiner
        // tree, so none may cost less than the exact 1-best optimum. (The
        // first tree need not *attain* the bound: the per-state k-cap and
        // the edge-disjoint merge rule make the enumeration a best-effort
        // top-k, and on adversarial graphs the optimal decomposition's
        // subtree can be evicted from a crowded bucket.)
        let tol = 1e-9 * (1.0 + bound.abs());
        debug_assert!(
            results.iter().all(|t| t.cost() >= bound - tol),
            "a pruned result undercut the certified lower bound {bound}"
        );
    }

    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3-4 with unit weights.
    fn path5() -> Graph {
        let mut g = Graph::with_nodes(5);
        for i in 0..4u32 {
            g.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        g
    }

    /// A graph with two distinct routes between terminals.
    ///     0 --1-- 1 --1-- 2
    ///     0 --1.5-------- 2
    fn two_routes() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 1.0).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 1.5).unwrap();
        g
    }

    #[test]
    fn single_terminal_is_empty_tree() {
        let g = path5();
        let ts = top_k_steiner(&g, &[NodeId(2)], &SteinerConfig::top_k(3)).unwrap();
        assert_eq!(ts.len(), 1);
        assert!(ts[0].is_empty());
        assert_eq!(ts[0].cost(), 0.0);
    }

    #[test]
    fn two_terminals_on_path() {
        let g = path5();
        let ts = top_k_steiner(&g, &[NodeId(0), NodeId(4)], &SteinerConfig::top_k(2)).unwrap();
        assert_eq!(ts.len(), 1); // only one simple tree exists
        assert_eq!(ts[0].cost(), 4.0);
        assert_eq!(ts[0].len(), 4);
        assert!(ts[0].validate(&g));
    }

    #[test]
    fn top2_ranks_alternative_routes() {
        let g = two_routes();
        let ts = top_k_steiner(&g, &[NodeId(0), NodeId(2)], &SteinerConfig::top_k(5)).unwrap();
        assert!(ts.len() >= 2);
        assert_eq!(ts[0].cost(), 1.5); // direct edge
        assert_eq!(ts[1].cost(), 2.0); // via node 1
        assert!(ts[0].cost() <= ts[1].cost());
        for t in &ts {
            assert!(t.validate(&g));
        }
    }

    #[test]
    fn three_terminals_star() {
        // Star: center 0, leaves 1,2,3 (weight 1 each); ring of weight 10.
        let mut g = Graph::with_nodes(4);
        for i in 1..4u32 {
            g.add_edge(NodeId(0), NodeId(i), 1.0).unwrap();
        }
        g.add_edge(NodeId(1), NodeId(2), 10.0).unwrap();
        let ts = top_k_steiner(
            &g,
            &[NodeId(1), NodeId(2), NodeId(3)],
            &SteinerConfig::top_k(1),
        )
        .unwrap();
        assert_eq!(ts[0].cost(), 3.0);
        assert_eq!(ts[0].steiner_points(), vec![NodeId(0)]);
        assert!(ts[0].validate(&g));
    }

    #[test]
    fn disconnected_terminals_error() {
        let mut g = path5();
        let lone = g.add_node();
        let err = top_k_steiner(&g, &[NodeId(0), lone], &SteinerConfig::top_k(1)).unwrap_err();
        assert_eq!(err, GraphError::Disconnected);
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = path5();
        assert!(matches!(
            top_k_steiner(&g, &[], &SteinerConfig::top_k(1)),
            Err(GraphError::NoTerminals)
        ));
        assert!(matches!(
            top_k_steiner(&g, &[NodeId(99)], &SteinerConfig::top_k(1)),
            Err(GraphError::UnknownNode(99))
        ));
        let mut big = Graph::with_nodes(20);
        for i in 0..19u32 {
            big.add_edge(NodeId(i), NodeId(i + 1), 1.0).unwrap();
        }
        let many: Vec<NodeId> = (0..20).map(NodeId).collect();
        assert!(matches!(
            top_k_steiner(&big, &many, &SteinerConfig::top_k(1)),
            Err(GraphError::TooManyTerminals { .. })
        ));
    }

    #[test]
    fn duplicate_terminals_collapsed() {
        let g = path5();
        let ts = top_k_steiner(
            &g,
            &[NodeId(0), NodeId(0), NodeId(1)],
            &SteinerConfig::top_k(1),
        )
        .unwrap();
        assert_eq!(ts[0].cost(), 1.0);
        assert_eq!(ts[0].terminals().len(), 2);
    }

    #[test]
    fn costs_non_decreasing() {
        // 4-cycle with a chord: several alternative trees.
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1), 1.0).unwrap();
        g.add_edge(NodeId(1), NodeId(2), 2.0).unwrap();
        g.add_edge(NodeId(2), NodeId(3), 1.0).unwrap();
        g.add_edge(NodeId(3), NodeId(0), 2.5).unwrap();
        g.add_edge(NodeId(0), NodeId(2), 2.2).unwrap();
        let ts = top_k_steiner(&g, &[NodeId(0), NodeId(2)], &SteinerConfig::top_k(4)).unwrap();
        assert!(ts.len() >= 2);
        for w in ts.windows(2) {
            assert!(w[0].cost() <= w[1].cost() + 1e-12);
        }
        for t in &ts {
            assert!(t.validate(&g));
        }
    }

    #[test]
    fn top1_matches_brute_force_on_random_graphs() {
        // Exhaustive check on small graphs: enumerate all edge subsets.
        let mut g = Graph::with_nodes(5);
        let ws = [1.0, 2.0, 1.5, 0.5, 2.5, 1.2, 0.8];
        let es = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)];
        for (&(a, b), &w) in es.iter().zip(ws.iter()) {
            g.add_edge(NodeId(a), NodeId(b), w).unwrap();
        }
        let terms = [NodeId(0), NodeId(3), NodeId(4)];
        let best = top_k_steiner(&g, &terms, &SteinerConfig::top_k(1)).unwrap();
        // Brute force over all 2^7 edge subsets.
        let mut best_bf = f64::INFINITY;
        for subset in 0u32..(1 << es.len()) {
            let keys: Vec<(NodeId, NodeId)> = (0..es.len())
                .filter(|i| subset & (1 << i) != 0)
                .map(|i| (NodeId(es[i].0), NodeId(es[i].1)))
                .collect();
            let cost: f64 = (0..es.len())
                .filter(|i| subset & (1 << i) != 0)
                .map(|i| ws[i])
                .sum();
            let tree = SteinerTree::new(keys, cost, terms.to_vec());
            if tree.validate(&g) && cost < best_bf {
                best_bf = cost;
            }
        }
        assert!((best[0].cost() - best_bf).abs() < 1e-9);
    }

    /// Bitwise comparison of the two enumeration entry points.
    fn assert_twins_identical(g: &Graph, terms: &[NodeId], cfg: &SteinerConfig) {
        let reference = top_k_steiner(g, terms, cfg);
        let fast = top_k_steiner_with(g, terms, cfg, &mut SteinerScratch::new());
        match (reference, fast) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.len(), b.len(), "tree count");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.edges(), y.edges(), "tree edges");
                    assert_eq!(x.cost().to_bits(), y.cost().to_bits(), "cost bits");
                    assert_eq!(x.terminals(), y.terminals(), "terminals");
                }
            }
            (a, b) => assert_eq!(format!("{a:?}"), format!("{b:?}"), "error mismatch"),
        }
    }

    #[test]
    fn scratch_path_matches_reference_on_fixtures() {
        let cases: Vec<(Graph, Vec<NodeId>)> = vec![
            (path5(), vec![NodeId(0), NodeId(4)]),
            (path5(), vec![NodeId(2)]),
            (two_routes(), vec![NodeId(0), NodeId(2)]),
            (two_routes(), vec![NodeId(0), NodeId(1), NodeId(2)]),
        ];
        for (g, terms) in &cases {
            for k in 0..6 {
                assert_twins_identical(g, terms, &SteinerConfig::top_k(k));
                let mut cfg = SteinerConfig::top_k(k);
                cfg.suppress_supertrees = false;
                assert_twins_identical(g, terms, &cfg);
            }
        }
    }

    #[test]
    fn scratch_path_reports_identical_errors() {
        let g = path5();
        let scratch = &mut SteinerScratch::new();
        assert!(matches!(
            top_k_steiner_with(&g, &[], &SteinerConfig::top_k(1), scratch),
            Err(GraphError::NoTerminals)
        ));
        assert!(matches!(
            top_k_steiner_with(&g, &[NodeId(99)], &SteinerConfig::top_k(1), scratch),
            Err(GraphError::UnknownNode(99))
        ));
        let mut g = path5();
        let lone = g.add_node();
        assert!(matches!(
            top_k_steiner_with(&g, &[NodeId(0), lone], &SteinerConfig::top_k(1), scratch),
            Err(GraphError::Disconnected)
        ));
    }

    #[test]
    fn scratch_reuse_across_calls_changes_nothing() {
        let g = two_routes();
        let mut scratch = SteinerScratch::new();
        let cfg = SteinerConfig::top_k(4);
        let cold = top_k_steiner_with(&g, &[NodeId(0), NodeId(2)], &cfg, &mut scratch).unwrap();
        // Interleave a different query, then repeat the first with the same
        // (now dirty) scratch.
        let _ = top_k_steiner_with(&g, &[NodeId(1), NodeId(2)], &cfg, &mut scratch).unwrap();
        let warm = top_k_steiner_with(&g, &[NodeId(0), NodeId(2)], &cfg, &mut scratch).unwrap();
        assert_eq!(cold.len(), warm.len());
        for (x, y) in cold.iter().zip(&warm) {
            assert_eq!(x.edges(), y.edges());
            assert_eq!(x.cost().to_bits(), y.cost().to_bits());
        }
    }

    #[test]
    fn lower_bound_is_the_first_tree_cost() {
        for (g, terms) in [
            (path5(), vec![NodeId(0), NodeId(4)]),
            (two_routes(), vec![NodeId(0), NodeId(2)]),
        ] {
            let best = top_k_steiner(&g, &terms, &SteinerConfig::top_k(1)).unwrap();
            let bound = steiner_lower_bound(&g, &terms).unwrap();
            assert!((best[0].cost() - bound).abs() < 1e-9, "bound {bound}");
        }
        assert_eq!(steiner_lower_bound(&path5(), &[NodeId(3)]).unwrap(), 0.0);
        let mut g = path5();
        let lone = g.add_node();
        assert_eq!(
            steiner_lower_bound(&g, &[NodeId(0), lone]).unwrap_err(),
            GraphError::Disconnected
        );
    }

    #[test]
    fn supertree_suppression() {
        // With suppression on, a returned tree never contains another
        // returned tree.
        let g = two_routes();
        let ts = top_k_steiner(&g, &[NodeId(0), NodeId(2)], &SteinerConfig::top_k(5)).unwrap();
        for (i, a) in ts.iter().enumerate() {
            for (j, b) in ts.iter().enumerate() {
                if i != j {
                    assert!(!a.is_subtree_of(b), "tree {i} is subtree of {j}");
                }
            }
        }
    }
}
