//! The R-tree proper: an arena of nodes plus variant-dispatched insertion,
//! deletion and bulk loading, with change logging for the CBB maintenance
//! layer (§IV-D).

use cbb_geom::{Point, Rect};

use crate::config::{TreeConfig, Variant};
use crate::hilbert::{hilbert_key_of_rect, DEFAULT_ORDER};
use crate::node::{Child, DataId, Entry, Node, NodeId};
use crate::variants::{quadratic, rrstar, rstar};

/// What happened to a node during an update, ordered by severity. The CBB
/// maintenance layer re-clips `Split` and `MbbChanged` nodes outright and
/// runs the Algorithm 2 validity test for `EntryAdded` (§IV-D).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ChangeKind {
    /// An entry was added without (so far) changing the node's MBB.
    EntryAdded = 0,
    /// The node's MBB changed (grew on insert, shrank on delete/condense).
    MbbChanged = 1,
    /// The node was split, freshly created, or wholesale redistributed.
    Split = 2,
}

/// Record of all node changes caused by one `insert` / `delete` call.
#[derive(Clone, Debug, Default)]
pub struct ChangeLog<const D: usize> {
    kinds: Vec<(NodeId, ChangeKind)>,
    /// Rectangles added to nodes (object MBB for leaves, child MBB for
    /// directory nodes) — inputs to the eager insertion-validity test.
    pub added: Vec<(NodeId, Rect<D>)>,
    /// Nodes deallocated (their auxiliary clip entries must be dropped).
    pub freed: Vec<NodeId>,
}

impl<const D: usize> ChangeLog<D> {
    fn record(&mut self, id: NodeId, kind: ChangeKind) {
        for (nid, k) in self.kinds.iter_mut() {
            if *nid == id {
                if kind > *k {
                    *k = kind;
                }
                return;
            }
        }
        self.kinds.push((id, kind));
    }

    fn record_added(&mut self, id: NodeId, rect: Rect<D>) {
        self.added.push((id, rect));
        self.record(id, ChangeKind::EntryAdded);
    }

    /// Strongest change recorded for `id`, if any.
    pub fn kind_of(&self, id: NodeId) -> Option<ChangeKind> {
        self.kinds.iter().find(|(n, _)| *n == id).map(|(_, k)| *k)
    }

    /// All `(node, strongest-change)` pairs.
    pub fn changes(&self) -> &[(NodeId, ChangeKind)] {
        &self.kinds
    }
}

/// Sentinel level marking a freed arena slot.
const FREED: u32 = u32::MAX;

/// A multi-dimensional R-tree with pluggable variant algorithms.
///
/// Leaves are at level 0; the root is the single node at the highest
/// level. The arena recycles freed slots; `NodeId`s are stable while a
/// node is live (they double as page ids in `cbb-storage`).
#[derive(Clone, Debug)]
pub struct RTree<const D: usize> {
    nodes: Vec<Node<D>>,
    free_list: Vec<NodeId>,
    root: NodeId,
    /// Tree configuration (variant, capacities, world bounds).
    pub config: TreeConfig<D>,
    len: usize,
    /// World bounds for Hilbert keys: fixed from config or grown from data.
    world: Option<Rect<D>>,
    /// Cumulative node constructions (see [`Self::nodes_allocated`]).
    allocated: u64,
}

impl<const D: usize> RTree<D> {
    /// An empty tree (a lone empty leaf as root).
    pub fn new(config: TreeConfig<D>) -> Self {
        let world = config.world;
        RTree {
            nodes: vec![Node::new(0)],
            free_list: Vec::new(),
            root: NodeId(0),
            config,
            len: 0,
            world,
            allocated: 1,
        }
    }

    /// Cumulative count of node constructions over the tree's lifetime
    /// (bulk-load packing, splits, new roots — recycled arena slots
    /// included). Never decreases; the difference across an update batch
    /// is a machine-independent measure of structural build work — what
    /// the engine's update tests compare between delta-apply and
    /// rebuild-per-batch.
    pub fn nodes_allocated(&self) -> u64 {
        self.allocated
    }

    /// Number of indexed objects.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no objects.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Root node id.
    pub fn root_id(&self) -> NodeId {
        self.root
    }

    /// Tree height in levels (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.node(self.root).level as usize + 1
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node<D> {
        let n = &self.nodes[id.0 as usize];
        debug_assert!(n.level != FREED, "access to freed node {id:?}");
        n
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node<D> {
        &mut self.nodes[id.0 as usize]
    }

    /// Iterate over all live `(id, node)` pairs.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, &Node<D>)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.level != FREED)
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.iter_nodes().count()
    }

    /// Number of live leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.iter_nodes().filter(|(_, n)| n.is_leaf()).count()
    }

    /// MBB of the whole tree (`None` when empty).
    pub fn bounds(&self) -> Option<Rect<D>> {
        if self.is_empty() {
            None
        } else {
            Some(self.node(self.root).mbb)
        }
    }

    fn alloc(&mut self, node: Node<D>) -> NodeId {
        self.allocated += 1;
        if let Some(id) = self.free_list.pop() {
            self.nodes[id.0 as usize] = node;
            id
        } else {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(node);
            id
        }
    }

    fn free(&mut self, id: NodeId, log: &mut ChangeLog<D>) {
        let n = self.node_mut(id);
        n.level = FREED;
        n.entries = Vec::new();
        self.free_list.push(id);
        log.freed.push(id);
    }

    /// World bounds used for Hilbert keys; grows with data when not fixed.
    fn hilbert_world(&self) -> Rect<D> {
        self.world
            .unwrap_or_else(|| Rect::new(Point::splat(0.0), Point::splat(1.0)))
    }

    fn grow_world(&mut self, rect: &Rect<D>) {
        self.world = Some(match self.world {
            Some(w) => w.union(rect),
            None => *rect,
        });
    }

    /// Hilbert key of a rectangle under the current world bounds.
    pub fn hilbert_key(&self, rect: &Rect<D>) -> u64 {
        hilbert_key_of_rect(rect, &self.hilbert_world(), DEFAULT_ORDER)
    }

    fn refresh_lhv(&mut self, id: NodeId) {
        if self.config.variant != Variant::Hilbert {
            return;
        }
        let world = self.hilbert_world();
        let node = self.node(id);
        let lhv = if node.is_leaf() {
            node.entries
                .iter()
                .map(|e| hilbert_key_of_rect(&e.mbb, &world, DEFAULT_ORDER))
                .max()
                .unwrap_or(0)
        } else {
            node.entries
                .iter()
                .map(|e| self.node(e.child.node_id()).lhv)
                .max()
                .unwrap_or(0)
        };
        self.node_mut(id).lhv = lhv;
    }

    // ------------------------------------------------------------------
    // Insertion
    // ------------------------------------------------------------------

    /// Insert a data object; returns the change log for CBB maintenance.
    pub fn insert(&mut self, rect: Rect<D>, data: DataId) -> ChangeLog<D> {
        assert!(rect.is_finite(), "cannot index non-finite rectangles");
        if self.config.world.is_none() {
            self.grow_world(&rect);
        }
        let mut log = ChangeLog::default();
        let mut reinserted_levels: u64 = 0;
        self.insert_entry(Entry::data(rect, data), 0, &mut log, &mut reinserted_levels);
        self.len += 1;
        log
    }

    /// Insert an entry at `level` (0 = leaf). Used by top-level inserts,
    /// forced reinsertion and delete-condense orphan handling.
    fn insert_entry(
        &mut self,
        entry: Entry<D>,
        level: u32,
        log: &mut ChangeLog<D>,
        reinserted_levels: &mut u64,
    ) {
        let path = self.choose_path(&entry.mbb, level);
        let target = *path.last().expect("path never empty");
        log.record_added(target, entry.mbb);

        // Insert at the Hilbert-sorted position for HR-trees, append
        // otherwise.
        if self.config.variant == Variant::Hilbert {
            let node = self.node(target);
            let world = self.hilbert_world();
            let pos = if node.is_leaf() {
                let key = self.hilbert_key(&entry.mbb);
                node.entries
                    .partition_point(|e| hilbert_key_of_rect(&e.mbb, &world, DEFAULT_ORDER) <= key)
            } else {
                // Directory entries stay ordered by child LHV.
                let child_lhv = self.node(entry.child.node_id()).lhv;
                node.entries
                    .partition_point(|e| self.node(e.child.node_id()).lhv <= child_lhv)
            };
            self.node_mut(target).entries.insert(pos, entry);
        } else {
            self.node_mut(target).entries.push(entry);
        }

        self.adjust_path(&path, log);
        self.handle_overflows(path, log, reinserted_levels);
    }

    /// Walk from the root down to `level`, choosing children per variant.
    fn choose_path(&self, rect: &Rect<D>, level: u32) -> Vec<NodeId> {
        let hkey = if self.config.variant == Variant::Hilbert {
            self.hilbert_key(rect)
        } else {
            0
        };
        let mut path = vec![self.root];
        let mut current = self.root;
        while self.node(current).level > level {
            let node = self.node(current);
            let idx = match self.config.variant {
                Variant::Quadratic => quadratic::choose_child(&node.entries, rect),
                Variant::RStar => rstar::choose_child(&node.entries, rect, node.level == 1),
                Variant::RRStar => rrstar::choose_child(&node.entries, rect),
                Variant::Hilbert => {
                    // First child whose LHV is ≥ the key, else the last.
                    let mut pick = node.entries.len() - 1;
                    for (i, e) in node.entries.iter().enumerate() {
                        if self.node(e.child.node_id()).lhv >= hkey {
                            pick = i;
                            break;
                        }
                    }
                    pick
                }
            };
            current = node.entries[idx].child.node_id();
            path.push(current);
        }
        path
    }

    /// Recompute MBBs (and LHVs) bottom-up along `path`, syncing parent
    /// entries and logging genuine MBB changes.
    ///
    /// A changed child MBB is also recorded as an `EntryAdded(new MBB)` on
    /// the parent: even when the parent's own MBB is unaffected, its clip
    /// points were computed against the old child boxes and may now be
    /// invalid — this is the "x+1'st CBB change" of §IV-D, caught by the
    /// eager validity test.
    fn adjust_path(&mut self, path: &[NodeId], log: &mut ChangeLog<D>) {
        for i in (0..path.len()).rev() {
            let id = path[i];
            let old = self.node(id).mbb;
            self.node_mut(id).recompute_mbb();
            self.refresh_lhv(id);
            let new = self.node(id).mbb;
            let changed = new != old && !self.node(id).entries.is_empty();
            if changed {
                log.record(id, ChangeKind::MbbChanged);
            }
            if i > 0 {
                self.sync_parent_entry(path[i - 1], id);
                if changed {
                    log.record_added(path[i - 1], new);
                }
            }
        }
    }

    /// Copy `child`'s MBB into its entry within `parent`.
    fn sync_parent_entry(&mut self, parent: NodeId, child: NodeId) {
        let mbb = self.node(child).mbb;
        let p = self.node_mut(parent);
        for e in p.entries.iter_mut() {
            if e.child == Child::Node(child) {
                e.mbb = mbb;
                return;
            }
        }
        panic!("{child:?} not found in parent {parent:?}");
    }

    /// Resolve overflows bottom-up along `path`.
    fn handle_overflows(
        &mut self,
        path: Vec<NodeId>,
        log: &mut ChangeLog<D>,
        reinserted_levels: &mut u64,
    ) {
        let mut i = path.len() - 1;
        loop {
            let nid = path[i];
            if self.node(nid).entries.len() <= self.config.max_entries {
                if i == 0 {
                    return;
                }
                i -= 1;
                continue;
            }

            let level = self.node(nid).level;
            let is_root = i == 0;

            // R*: forced reinsertion, once per level per top-level insert.
            if self.config.variant == Variant::RStar
                && !is_root
                && (*reinserted_levels >> level) & 1 == 0
            {
                *reinserted_levels |= 1 << level;
                self.force_reinsert(&path[..=i], log, reinserted_levels);
                return; // recursive inserts resolved any further overflow
            }

            // HR-tree: try redistributing with an adjacent sibling first
            // (the 2-to-3 cooperation policy).
            if self.config.variant == Variant::Hilbert
                && !is_root
                && self.try_hilbert_redistribute(path[i - 1], nid, log)
            {
                i -= 1;
                continue;
            }

            // Split.
            let sibling = self.split_node(nid, log);
            if is_root {
                let level = self.node(nid).level;
                let mut new_root = Node::new(level + 1);
                new_root.entries.push(Entry::node(self.node(nid).mbb, nid));
                new_root
                    .entries
                    .push(Entry::node(self.node(sibling).mbb, sibling));
                new_root.recompute_mbb();
                let root_id = self.alloc(new_root);
                self.refresh_lhv(root_id);
                self.root = root_id;
                log.record(root_id, ChangeKind::Split);
                return;
            }
            let parent = path[i - 1];
            self.sync_parent_entry(parent, nid);
            let sib_entry = Entry::node(self.node(sibling).mbb, sibling);
            if self.config.variant == Variant::Hilbert {
                // Keep parent entries in Hilbert (LHV) order: the sibling
                // holds the upper half of nid's keys, so it goes right
                // after nid.
                let pos = self
                    .node(parent)
                    .entries
                    .iter()
                    .position(|e| e.child == Child::Node(nid))
                    .expect("nid in parent")
                    + 1;
                self.node_mut(parent).entries.insert(pos, sib_entry);
            } else {
                self.node_mut(parent).entries.push(sib_entry);
            }
            self.adjust_path(&path[..i], log);
            i -= 1;
        }
    }

    /// Split `nid` per the variant's algorithm; returns the new sibling id.
    fn split_node(&mut self, nid: NodeId, log: &mut ChangeLog<D>) -> NodeId {
        let level = self.node(nid).level;
        let m = self.config.min_entries;
        let entries = std::mem::take(&mut self.node_mut(nid).entries);
        let (g1, g2) = match self.config.variant {
            Variant::Quadratic => quadratic::split(entries, m),
            Variant::RStar => rstar::split(entries, m),
            Variant::RRStar => rrstar::split(entries, m),
            Variant::Hilbert => {
                // Entries are kept in Hilbert order: cut in the middle.
                let mut g1 = entries;
                let g2 = g1.split_off(g1.len() / 2);
                (g1, g2)
            }
        };
        self.node_mut(nid).entries = g1;
        self.node_mut(nid).recompute_mbb();
        self.refresh_lhv(nid);

        let mut sib = Node::new(level);
        sib.entries = g2;
        sib.recompute_mbb();
        let sib_id = self.alloc(sib);
        self.refresh_lhv(sib_id);

        log.record(nid, ChangeKind::Split);
        log.record(sib_id, ChangeKind::Split);
        sib_id
    }

    /// R* forced reinsertion on the node at the end of `path`.
    fn force_reinsert(
        &mut self,
        path: &[NodeId],
        log: &mut ChangeLog<D>,
        reinserted_levels: &mut u64,
    ) {
        let nid = *path.last().expect("non-empty path");
        let level = self.node(nid).level;
        let entries = std::mem::take(&mut self.node_mut(nid).entries);
        let p = ((entries.len() as f64 * self.config.reinsert_fraction) as usize).max(1);
        let mbb = self.node(nid).mbb;
        let (kept, reinsert) = rstar::select_reinsert(entries, &mbb, p);
        self.node_mut(nid).entries = kept;
        self.adjust_path(path, log);
        for e in reinsert {
            self.insert_entry(e, level, log, reinserted_levels);
        }
    }

    /// HR-tree sibling cooperation: move entries between `nid` and an
    /// adjacent (in Hilbert order) sibling that has slack. Returns whether
    /// redistribution resolved the overflow.
    fn try_hilbert_redistribute(
        &mut self,
        parent: NodeId,
        nid: NodeId,
        log: &mut ChangeLog<D>,
    ) -> bool {
        let idx = self
            .node(parent)
            .entries
            .iter()
            .position(|e| e.child == Child::Node(nid))
            .expect("nid in parent");
        let candidates = [idx.checked_sub(1), idx.checked_add(1)];
        for cand in candidates.into_iter().flatten() {
            if cand >= self.node(parent).entries.len() {
                continue;
            }
            let sib = self.node(parent).entries[cand].child.node_id();
            if self.node(sib).entries.len() + 2 > self.config.max_entries {
                continue; // sibling (nearly) full: cooperation impossible
            }
            // Merge in Hilbert order and split evenly between the two.
            let (first, second) = if cand < idx { (sib, nid) } else { (nid, sib) };
            let mut merged = std::mem::take(&mut self.node_mut(first).entries);
            merged.extend(std::mem::take(&mut self.node_mut(second).entries));
            let half = merged.len() / 2;
            let upper = merged.split_off(half);
            self.node_mut(first).entries = merged;
            self.node_mut(second).entries = upper;
            for id in [first, second] {
                self.node_mut(id).recompute_mbb();
                self.refresh_lhv(id);
                self.sync_parent_entry(parent, id);
                // Wholesale redistribution: the redistributed boxes may
                // span the gap between the two old sibling boxes, possibly
                // invading the parent's clip regions — surface them to the
                // eager validity test.
                log.record(id, ChangeKind::Split);
                let mbb = self.node(id).mbb;
                log.record_added(parent, mbb);
            }
            return true;
        }
        false
    }

    // ------------------------------------------------------------------
    // Deletion
    // ------------------------------------------------------------------

    /// Delete the object `(rect, data)`. Returns the change log, or `None`
    /// when the object is not present.
    pub fn delete(&mut self, rect: &Rect<D>, data: DataId) -> Option<ChangeLog<D>> {
        let path = self.find_leaf(self.root, rect, data)?;
        let mut log = ChangeLog::default();
        let leaf = *path.last().expect("non-empty");
        {
            let node = self.node_mut(leaf);
            let pos = node
                .entries
                .iter()
                .position(|e| e.child == Child::Data(data) && e.mbb == *rect)
                .expect("find_leaf guarantees presence");
            node.entries.remove(pos);
        }

        // Condense: dissolve underfull nodes bottom-up, collect orphans.
        let mut orphans: Vec<(Entry<D>, u32)> = Vec::new();
        for i in (1..path.len()).rev() {
            let nid = path[i];
            if self.node(nid).entries.len() < self.config.min_entries {
                let parent = path[i - 1];
                let level = self.node(nid).level;
                let pos = self
                    .node(parent)
                    .entries
                    .iter()
                    .position(|e| e.child == Child::Node(nid))
                    .expect("child in parent");
                self.node_mut(parent).entries.remove(pos);
                let entries = std::mem::take(&mut self.node_mut(nid).entries);
                orphans.extend(entries.into_iter().map(|e| (e, level)));
                self.free(nid, &mut log);
            }
        }
        let live_prefix: Vec<NodeId> = path
            .iter()
            .copied()
            .filter(|id| self.node_raw_level(*id) != FREED)
            .collect();
        self.adjust_path(&live_prefix, &mut log);

        // Shrink the root while it is an internal node with one child.
        while !self.node(self.root).is_leaf() && self.node(self.root).entries.len() == 1 {
            let child = self.node(self.root).entries[0].child.node_id();
            let old_root = self.root;
            self.root = child;
            self.free(old_root, &mut log);
        }

        self.len -= 1;

        // Reinsert orphans at their original levels.
        let mut reinserted_levels: u64 = 0;
        for (entry, level) in orphans {
            self.insert_entry(entry, level, &mut log, &mut reinserted_levels);
        }
        Some(log)
    }

    fn node_raw_level(&self, id: NodeId) -> u32 {
        self.nodes[id.0 as usize].level
    }

    /// DFS for the leaf containing `(rect, data)`; returns the root→leaf
    /// path.
    fn find_leaf(&self, from: NodeId, rect: &Rect<D>, data: DataId) -> Option<Vec<NodeId>> {
        let node = self.node(from);
        if node.is_leaf() {
            if node
                .entries
                .iter()
                .any(|e| e.child == Child::Data(data) && e.mbb == *rect)
            {
                return Some(vec![from]);
            }
            return None;
        }
        for e in &node.entries {
            if e.mbb.contains_rect(rect) {
                if let Some(mut path) = self.find_leaf(e.child.node_id(), rect, data) {
                    let mut full = vec![from];
                    full.append(&mut path);
                    return Some(full);
                }
            }
        }
        None
    }

    // ------------------------------------------------------------------
    // Bulk loading
    // ------------------------------------------------------------------

    /// Bulk-load a tree. The Hilbert variant packs by Hilbert order (the
    /// HR-tree's native loading); all other variants use STR
    /// (Leutenegger et al. 1997), which the benchmark uses for batch
    /// construction.
    pub fn bulk_load(config: TreeConfig<D>, items: &[(Rect<D>, DataId)]) -> Self {
        let mut tree = RTree::new(config);
        if items.is_empty() {
            return tree;
        }
        let world = items
            .iter()
            .map(|(r, _)| *r)
            .reduce(|a, b| a.union(&b))
            .expect("non-empty");
        if tree.world.is_none() {
            tree.world = Some(world);
        }

        // Capacity per node: fill to 100 % like the benchmark loader.
        let cap = tree.config.max_entries;
        let mut level_entries: Vec<Entry<D>> = match tree.config.variant {
            Variant::Hilbert => {
                let w = tree.hilbert_world();
                let mut keyed: Vec<(u64, &(Rect<D>, DataId))> = items
                    .iter()
                    .map(|it| (hilbert_key_of_rect(&it.0, &w, DEFAULT_ORDER), it))
                    .collect();
                keyed.sort_by_key(|(k, _)| *k);
                keyed
                    .into_iter()
                    .map(|(_, (r, d))| Entry::data(*r, *d))
                    .collect()
            }
            _ => str_order(items, cap),
        };

        // Pack bottom-up.
        let m = tree.config.min_entries;
        let mut level = 0u32;
        loop {
            let mut next: Vec<Entry<D>> = Vec::with_capacity(level_entries.len() / cap + 1);
            for chunk in
                chunk_sizes(level_entries.len(), cap, m)
                    .into_iter()
                    .scan(0usize, |off, size| {
                        let s = *off;
                        *off += size;
                        Some(&level_entries[s..s + size])
                    })
            {
                let mut node = Node::new(level);
                node.entries = chunk.to_vec();
                node.recompute_mbb();
                let id = tree.alloc(node);
                tree.refresh_lhv(id);
                next.push(Entry::node(tree.node(id).mbb, id));
            }
            if next.len() == 1 {
                tree.root = next[0].child.node_id();
                break;
            }
            level_entries = next;
            level += 1;
        }
        // The arena slot 0 created by `new` may be orphaned; recycle it.
        if tree.root != NodeId(0) && tree.nodes[0].entries.is_empty() && tree.nodes[0].level == 0 {
            tree.nodes[0].level = FREED;
            tree.free_list.push(NodeId(0));
        }
        tree.len = items.len();
        tree
    }
}

/// Chunk sizes for packing `n` ordered entries into nodes of capacity
/// `cap` such that every chunk holds at least `m` entries (except a lone
/// chunk smaller than `m`, which becomes an under-full root — allowed).
fn chunk_sizes(n: usize, cap: usize, m: usize) -> Vec<usize> {
    debug_assert!(m <= cap / 2);
    let mut sizes = Vec::with_capacity(n / cap + 2);
    let mut remaining = n;
    while remaining > 0 {
        if remaining <= cap {
            sizes.push(remaining);
            break;
        }
        if remaining < cap + m {
            // Splitting off a full page would leave < m: rebalance the tail
            // into two legal chunks (cap ≥ 2m guarantees both ≥ m).
            sizes.push(remaining - m);
            sizes.push(m);
            break;
        }
        sizes.push(cap);
        remaining -= cap;
    }
    sizes
}

/// STR ordering (Leutenegger et al. 1997): recursively sort by each
/// dimension into slabs sized so the final runs fill leaf pages of
/// capacity `cap`.
fn str_order<const D: usize>(items: &[(Rect<D>, DataId)], cap: usize) -> Vec<Entry<D>> {
    let mut entries: Vec<Entry<D>> = items.iter().map(|(r, d)| Entry::data(*r, *d)).collect();
    str_recurse(&mut entries, 0, cap);
    entries
}

/// Recursive STR pass: sort the slice by the MBB center on `axis`, cut it
/// into `⌈pages^(1/(D−axis))⌉` slabs, recurse on the next axis per slab.
fn str_recurse<const D: usize>(entries: &mut [Entry<D>], axis: usize, cap: usize) {
    if axis >= D || entries.len() <= 1 {
        return;
    }
    entries.sort_by(|a, b| {
        let ca = a.mbb.center();
        let cb = b.mbb.center();
        ca[axis].partial_cmp(&cb[axis]).expect("finite")
    });
    if axis + 1 == D {
        return;
    }
    let n = entries.len();
    let pages = n.div_ceil(cap).max(1);
    let slabs = (pages as f64).powf(1.0 / (D - axis) as f64).ceil().max(1.0) as usize;
    let slab_size = n.div_ceil(slabs).max(1);
    for chunk in entries.chunks_mut(slab_size) {
        str_recurse(chunk, axis + 1, cap);
    }
}
