//! Execution plans — mini-partitioning and block coloring (OP2's `op_plan`).
//!
//! An indirect loop may have two iteration elements (say, two edges) that
//! write/increment the *same* target element (a shared cell). OP2's strategy,
//! reproduced here: split the iteration set into contiguous **blocks** of
//! `part_size` elements, compute each block's indirect write footprint, and
//! **greedily color** the blocks so that same-colored blocks have disjoint
//! footprints. Execution then proceeds color by color; within a color every
//! block can run on a different thread with *no atomics and no locks*.
//!
//! Direct loops (and loops with only indirect reads) get a single color.
//!
//! Plans are pure functions of `(set, args, part_size)` and relatively
//! expensive to build, so they are memoized in a [`PlanCache`] keyed by
//! [`PlanKey`] — OP2 does exactly the same across time-march iterations.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::arg::{ArgSpec, MapRef};
use crate::set::Set;

/// Default mini-partition size (elements per block). OP2's common default.
pub const DEFAULT_PART_SIZE: usize = 256;

/// Why a plan failed validation — typed so executors can surface a broken
/// plan as a recoverable error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Two same-colored blocks write the same indirect target.
    ColorConflict {
        /// First block writing the target.
        block_a: usize,
        /// Conflicting block of the same color.
        block_b: usize,
        /// The shared color.
        color: u32,
        /// The contested target element.
        target: usize,
        /// Name of the map both blocks write through.
        map: String,
    },
    /// Block ranges are not contiguous.
    BlockGap {
        /// Element index the next block was expected to start at.
        expected: usize,
        /// Where it actually started.
        got: usize,
    },
    /// Blocks do not cover the iteration set exactly.
    Coverage {
        /// Elements covered by the blocks.
        covered: usize,
        /// Size of the iteration set.
        set_size: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::ColorConflict {
                block_a,
                block_b,
                color,
                target,
                map,
            } => write!(
                f,
                "blocks {block_a} and {block_b} share color {color} but both write \
                 target {target} of map {map}"
            ),
            PlanError::BlockGap { expected, got } => {
                write!(f, "block gap: expected start {expected}, got {got}")
            }
            PlanError::Coverage { covered, set_size } => {
                write!(f, "blocks cover {covered} elements, set has {set_size}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A colored block execution plan for one loop shape.
#[derive(Debug)]
pub struct Plan {
    /// Size of the iteration set the plan covers.
    pub set_size: usize,
    /// Mini-partition size used to build the blocks.
    pub part_size: usize,
    /// Contiguous element ranges, one per block, in ascending order.
    pub blocks: Vec<Range<usize>>,
    /// Color of each block.
    pub block_colors: Vec<u32>,
    /// Number of colors.
    pub ncolors: u32,
    /// Block indices grouped by color (ascending within each color).
    pub color_blocks: Vec<Vec<u32>>,
    /// Memoized result of [`Plan::validate_cached`].
    validated: OnceLock<Option<PlanError>>,
}

impl Plan {
    /// Build a plan for iterating `set` with the given argument declarations.
    ///
    /// Coloring considers every argument that *writes through a map*
    /// (`OP_INC`, `OP_WRITE`, `OP_RW` with a map); if there are none, all
    /// blocks share color 0. Blocks take the lowest admissible color in
    /// ascending block order (OP2's first-fit `op_plan`).
    pub fn build(set: &Set, args: &[ArgSpec], part_size: usize) -> Plan {
        let n = set.size();
        let part_size = part_size.max(1);
        let nblocks = n.div_ceil(part_size);
        let blocks: Vec<Range<usize>> = (0..nblocks)
            .map(|b| b * part_size..((b + 1) * part_size).min(n))
            .collect();

        let write_refs = write_refs(args);

        if write_refs.is_empty() || nblocks == 0 {
            let block_colors = vec![0u32; nblocks];
            let ncolors = u32::from(nblocks > 0);
            let color_blocks = if nblocks > 0 {
                vec![(0..nblocks as u32).collect()]
            } else {
                Vec::new()
            };
            return Plan {
                set_size: n,
                part_size,
                blocks,
                block_colors,
                ncolors,
                color_blocks,
                validated: OnceLock::new(),
            };
        }

        // Per-map color-usage bitmask for every target element. Masks are
        // multi-word and grow on demand, so highly irregular meshes that
        // need more than 64 colors (e.g. random graphs) are handled.
        let mut mask_words = 1usize;
        let mut masks: HashMap<u64, Vec<u64>> = HashMap::new();
        for (map, _) in &write_refs {
            masks
                .entry(map.id())
                .or_insert_with(|| vec![0u64; map.to_set().size()]);
        }

        let mut block_colors = vec![0u32; nblocks];
        let mut ncolors = 0u32;
        let mut forbidden: Vec<u64> = Vec::new();
        for (b, range) in blocks.iter().enumerate() {
            forbidden.clear();
            forbidden.resize(mask_words, 0);
            for (map, idx) in &write_refs {
                let mask = &masks[&map.id()];
                for e in range.clone() {
                    let base = map.at(e, *idx) * mask_words;
                    for w in 0..mask_words {
                        forbidden[w] |= mask[base + w];
                    }
                }
            }
            let color = match first_zero_bit(&forbidden) {
                Some(c) => c,
                None => {
                    // All current words saturated: widen every mask by one
                    // word and take the first bit of the new word.
                    let new_color = (mask_words * 64) as u32;
                    for mask in masks.values_mut() {
                        *mask = widen(mask, mask_words);
                    }
                    mask_words += 1;
                    new_color
                }
            };
            block_colors[b] = color;
            ncolors = ncolors.max(color + 1);
            let (word, bit) = (color as usize / 64, color as usize % 64);
            for (map, idx) in &write_refs {
                let mask = masks.get_mut(&map.id()).expect("mask pre-inserted");
                for e in range.clone() {
                    mask[map.at(e, *idx) * mask_words + word] |= 1u64 << bit;
                }
            }
        }

        // Test hook, off unless armed on this thread: deliberately break the
        // coloring so the plan validator's end-to-end tests have a real bug
        // to refuse.
        crate::det::maybe_break_coloring(&mut block_colors, &mut ncolors);

        let mut color_blocks: Vec<Vec<u32>> = vec![Vec::new(); ncolors as usize];
        for (b, &c) in block_colors.iter().enumerate() {
            color_blocks[c as usize].push(b as u32);
        }

        Plan {
            set_size: n,
            part_size,
            blocks,
            block_colors,
            ncolors,
            color_blocks,
            validated: OnceLock::new(),
        }
    }

    /// Number of blocks.
    pub fn nblocks(&self) -> usize {
        self.blocks.len()
    }

    /// Validate the coloring invariant against `args`: no two blocks of the
    /// same color may write the same target element, and the blocks tile the
    /// set in order (else [`PlanError::BlockGap`] / [`PlanError::Coverage`]).
    ///
    /// Every [`Plan::validate_cached`] call runs this once per plan, so the
    /// runtime pays it on the first iteration of every run that builds a new
    /// plan. It trusts nothing in the plan but its blocks and their colors:
    /// one pass over the indirect write references, O(references) time, and
    /// for each written map two flat arrays over its target set — a color
    /// bitmask of ⌈colors/64⌉ words and a `u32` last writing block — so
    /// about `target-set size × (8·⌈colors/64⌉ + 4)` bytes, where `colors`
    /// counts the distinct colors the blocks carry. Write state is keyed by
    /// map, so two slots of one map (`pecell`'s two cells) share it. The
    /// first conflict in (block, argument, element) order is reported, its
    /// earlier block found by a rescan that only the error path pays for.
    pub fn validate(&self, args: &[ArgSpec]) -> Result<(), PlanError> {
        let write_refs = write_refs(args);
        // Colors ranked densely over those the blocks carry, not `ncolors`:
        // a broken plan's colors can exceed it or leave gaps.
        let mut colors: Vec<u32> = self
            .block_colors
            .iter()
            .take(self.blocks.len())
            .copied()
            .collect();
        colors.sort_unstable();
        colors.dedup();
        let words = colors.len().div_ceil(64);
        // One write state per written map; `slot[k]` is write_refs[k]'s.
        let mut states: Vec<WriteState> = Vec::new();
        let slot: Vec<usize> = write_refs
            .iter()
            .map(|(map, _)| match states.iter().position(|s| s.map == map.id()) {
                Some(i) => i,
                None => {
                    states.push(WriteState::new(map.id(), map.to_set().size(), words));
                    states.len() - 1
                }
            })
            .collect();
        for (b, range) in self.blocks.iter().enumerate() {
            let color = self.block_colors[b];
            let rank = colors.binary_search(&color).expect("ranked above");
            let (word, bit) = (rank / 64, 1u64 << (rank % 64));
            // Block indices fit a u32, as `color_blocks` stores them.
            let block = b as u32;
            for ((map, idx), &s) in write_refs.iter().zip(&slot) {
                let st = &mut states[s];
                for e in range.clone() {
                    let t = map.at(e, *idx);
                    if st.last[t] == block {
                        continue;
                    }
                    let w = &mut st.colors[t * words + word];
                    if *w & bit != 0 {
                        return Err(PlanError::ColorConflict {
                            block_a: self.first_writer(&write_refs, map.id(), t, color),
                            block_b: b,
                            color,
                            target: t,
                            map: map.name().to_owned(),
                        });
                    }
                    *w |= bit;
                    st.last[t] = block;
                }
            }
        }
        // Also check every element is covered exactly once.
        let mut covered = 0usize;
        let mut expect_start = 0usize;
        for r in &self.blocks {
            if r.start != expect_start {
                return Err(PlanError::BlockGap {
                    expected: expect_start,
                    got: r.start,
                });
            }
            covered += r.len();
            expect_start = r.end;
        }
        if covered != self.set_size {
            return Err(PlanError::Coverage {
                covered,
                set_size: self.set_size,
            });
        }
        Ok(())
    }

    /// The lowest block of `color` that writes `target` through map `map_id`
    /// — the earlier side of a conflict [`Plan::validate`] found, so it
    /// exists.
    fn first_writer(
        &self,
        write_refs: &[(&crate::map::Map, usize)],
        map_id: u64,
        target: usize,
        color: u32,
    ) -> usize {
        (0..self.blocks.len())
            .filter(|&b| self.block_colors[b] == color)
            .find(|&b| {
                write_refs
                    .iter()
                    .filter(|(map, _)| map.id() == map_id)
                    .any(|(map, idx)| self.blocks[b].clone().any(|e| map.at(e, *idx) == target))
            })
            .expect("a set color bit has an earlier writer")
    }

    /// Memoized [`Plan::validate`]: plans are immutable once built and reused
    /// across thousands of identical loop invocations, so the O(indirect
    /// references) check runs at most once per plan.
    pub fn validate_cached(&self, args: &[ArgSpec]) -> Result<(), PlanError> {
        match self.validated.get_or_init(|| self.validate(args).err()) {
            None => Ok(()),
            Some(e) => Err(e.clone()),
        }
    }
}

/// The indirect-write footprint sources of a loop: `(map, slot)` for every
/// argument that writes through a map, in argument order.
fn write_refs(args: &[ArgSpec]) -> Vec<(&crate::map::Map, usize)> {
    args.iter()
        .filter(|a| a.access.writes())
        .filter_map(|a| match &a.map_ref {
            MapRef::Indirect { map, idx } => Some((map, *idx)),
            MapRef::Direct => None,
        })
        .collect()
}

/// [`Plan::validate`]'s write state for one map, flat over its target set.
struct WriteState {
    /// The map's id.
    map: u64,
    /// Per target, a bitmask over the ranked colors that wrote it.
    colors: Vec<u64>,
    /// Per target, the last block that wrote it (`u32::MAX`: none yet).
    last: Vec<u32>,
}

impl WriteState {
    fn new(map: u64, targets: usize, words: usize) -> Self {
        WriteState {
            map,
            colors: vec![0; targets * words],
            last: vec![u32::MAX; targets],
        }
    }
}

/// Lowest clear bit across a little-endian word vector, if any.
fn first_zero_bit(words: &[u64]) -> Option<u32> {
    for (w, &word) in words.iter().enumerate() {
        if word != u64::MAX {
            return Some(w as u32 * 64 + (!word).trailing_zeros());
        }
    }
    None
}

/// Re-layout per-target masks from `words` to `words + 1` words per target.
fn widen(mask: &[u64], words: usize) -> Vec<u64> {
    let targets = mask.len() / words;
    let mut out = vec![0u64; targets * (words + 1)];
    for t in 0..targets {
        out[t * (words + 1)..t * (words + 1) + words]
            .copy_from_slice(&mask[t * words..(t + 1) * words]);
    }
    out
}

/// Memoization key for a plan: loop name, set identity, block size, and the
/// full argument shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    set_id: u64,
    part_size: usize,
    args: Vec<(u64, u64, usize, &'static str)>,
}

impl PlanKey {
    /// Build the key for `(set, args, part_size)`. The block size is part of
    /// the key: two jobs tuned to different block sizes must never share a
    /// plan.
    pub fn new(set: &Set, args: &[ArgSpec], part_size: usize) -> Self {
        PlanKey {
            set_id: set.id(),
            part_size,
            args: args
                .iter()
                .map(|a| {
                    let (map_id, idx) = match &a.map_ref {
                        MapRef::Direct => (0, usize::MAX),
                        MapRef::Indirect { map, idx } => (map.id(), *idx),
                    };
                    (a.dat_id, map_id, idx, a.access.op2_name())
                })
                .collect(),
        }
    }
}

/// Content hash of the *topology* a plan depends on: the iteration-set size,
/// the block size, and — per argument — the access mode, map slot, and the
/// full **contents** of any indirection table. Two loops on distinct mesh
/// objects with identical connectivity hash identically, so a service that
/// runs many jobs over copies of the same mesh builds each plan once.
///
/// Dat identities are deliberately excluded: a [`Plan`] is pure index data
/// (blocks + colors) derived from the indirect-write footprint, never from
/// the values or identity of the dats flowing through it.
pub fn topology_hash(
    set: &Set,
    args: &[ArgSpec],
    part_size: usize,
    map_hash: &mut impl FnMut(&crate::map::Map) -> u64,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    loop_shape_hash(set, args, map_hash, &mut h);
    part_size.hash(&mut h);
    h.finish()
}

/// Content hash of the *loop shape alone* — set size, access pattern, and map
/// contents, with **no block size mixed in**. This is the mesh-topology
/// half of a tuner decision key: all block-size candidates for one loop
/// share this hash, so a tune store addressed by it survives retuning.
pub fn loop_topology(
    set: &Set,
    args: &[ArgSpec],
    map_hash: &mut impl FnMut(&crate::map::Map) -> u64,
) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    loop_shape_hash(set, args, map_hash, &mut h);
    h.finish()
}

fn loop_shape_hash(
    set: &Set,
    args: &[ArgSpec],
    map_hash: &mut impl FnMut(&crate::map::Map) -> u64,
    h: &mut impl Hasher,
) {
    set.size().hash(h);
    args.len().hash(h);
    for a in args {
        a.access.op2_name().hash(h);
        match &a.map_ref {
            MapRef::Direct => u64::MAX.hash(h),
            MapRef::Indirect { map, idx } => {
                idx.hash(h);
                map_hash(map).hash(h);
            }
        }
    }
}

/// One memoization slot: racing callers share the slot and block in
/// [`OnceLock::get_or_init`] while the first builds — **single-flight**
/// construction, no thundering-herd rebuilds.
type PlanSlot = Arc<OnceLock<Arc<Plan>>>;

/// Thread-safe memoization of plans across loop invocations, in two tiers:
///
/// * **identity tier** — keyed by [`PlanKey`] (set/map object ids): the fast
///   path for the thousands of identical invocations of one time-march;
/// * **topology tier** — keyed by [`topology_hash`] (content hash of set
///   size, block size, access shape, and map tables): repeated *jobs* over
///   structurally-identical meshes reuse each other's plans even though
///   every job declared fresh set/map objects.
///
/// Construction is single-flight: concurrent misses on the same topology
/// block on one builder instead of all building ([`PlanCache::builds`]
/// counts actual constructions, which tests pin to 1 under races).
#[derive(Default)]
pub struct PlanCache {
    plans: Mutex<HashMap<PlanKey, Arc<Plan>>>,
    topo: Mutex<HashMap<u64, PlanSlot>>,
    /// Memoized content hash per map identity (tables are immutable).
    map_hashes: Mutex<HashMap<u64, u64>>,
    builds: AtomicUsize,
    topo_hits: AtomicUsize,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or build the plan for `(set, args, part_size)`. Both cache tiers
    /// key on the block size, so jobs tuned to different block sizes get
    /// distinct plans.
    pub fn get(&self, set: &Set, args: &[ArgSpec], part_size: usize) -> Arc<Plan> {
        let key = PlanKey::new(set, args, part_size);
        if let Some(p) = self.plans.lock().get(&key) {
            return Arc::clone(p);
        }
        // Identity miss: fall through to the content-addressed tier.
        let topo = topology_hash(set, args, part_size, &mut |m| self.hash_map_table(m));
        let slot = Arc::clone(self.topo.lock().entry(topo).or_default());
        let mut built_here = false;
        let plan = Arc::clone(slot.get_or_init(|| {
            built_here = true;
            self.builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(Plan::build(set, args, part_size))
        }));
        if !built_here {
            self.topo_hits.fetch_add(1, Ordering::Relaxed);
        }
        self.plans.lock().insert(key, Arc::clone(&plan));
        plan
    }

    /// Parameter-independent content hash of a loop's shape (see
    /// [`loop_topology`]), using this cache's memoized map-table hashes.
    pub fn loop_topology(&self, set: &Set, args: &[ArgSpec]) -> u64 {
        loop_topology(set, args, &mut |m| self.hash_map_table(m))
    }

    /// Content hash of `map`'s table, memoized by map identity.
    fn hash_map_table(&self, map: &crate::map::Map) -> u64 {
        if let Some(h) = self.map_hashes.lock().get(&map.id()) {
            return *h;
        }
        let mut h = std::collections::hash_map::DefaultHasher::new();
        map.dim().hash(&mut h);
        map.from_set().size().hash(&mut h);
        map.to_set().size().hash(&mut h);
        map.table().hash(&mut h);
        let digest = h.finish();
        self.map_hashes.lock().insert(map.id(), digest);
        digest
    }

    /// Number of distinct loop shapes seen so far (identity tier).
    pub fn len(&self) -> usize {
        self.plans.lock().len()
    }

    /// True if no plan has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.plans.lock().is_empty()
    }

    /// Number of plans actually constructed (≤ [`PlanCache::len`] when
    /// topology sharing or single-flight collapsing kicked in).
    pub fn builds(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// Identity-tier misses served from the topology tier (a warm service
    /// reports these as plan-cache hits).
    pub fn topo_hits(&self) -> usize {
        self.topo_hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::Access;
    use crate::arg::{arg_direct, arg_indirect};
    use crate::dat::Dat;
    use crate::map::Map;

    /// A 1-D chain mesh: edge e connects cells e and e+1 — adjacent edges
    /// conflict, so same-colored blocks must not be adjacent.
    fn chain(nedges: usize, part: usize) -> (Set, Vec<ArgSpec>, Plan) {
        let edges = Set::new("edges", nedges);
        let cells = Set::new("cells", nedges + 1);
        let mut table = Vec::with_capacity(nedges * 2);
        for e in 0..nedges as u32 {
            table.push(e);
            table.push(e + 1);
        }
        let m = Map::new("pecell", &edges, &cells, 2, table);
        let res = Dat::filled("res", &cells, 1, 0.0f64);
        let args = vec![
            arg_indirect(&res, 0, &m, Access::Inc),
            arg_indirect(&res, 1, &m, Access::Inc),
        ];
        let plan = Plan::build(&edges, &args, part);
        (edges, args, plan)
    }

    #[test]
    fn direct_loop_single_color() {
        let cells = Set::new("cells", 1000);
        let q = Dat::filled("q", &cells, 4, 0.0f64);
        let args = vec![arg_direct(&q, Access::Write)];
        let plan = Plan::build(&cells, &args, 128);
        assert_eq!(plan.ncolors, 1);
        assert_eq!(plan.nblocks(), 8);
        plan.validate(&args).unwrap();
    }

    #[test]
    fn chain_needs_two_colors() {
        let (_s, args, plan) = chain(1000, 100);
        assert_eq!(plan.ncolors, 2, "adjacent chain blocks conflict pairwise");
        plan.validate(&args).unwrap();
    }

    #[test]
    fn chain_coloring_valid_for_many_part_sizes() {
        for part in [1, 3, 7, 50, 999, 1000, 2000] {
            let (_s, args, plan) = chain(1000, part);
            plan.validate(&args)
                .unwrap_or_else(|e| panic!("part={part}: {e}"));
        }
    }

    #[test]
    fn single_block_single_color() {
        let (_s, args, plan) = chain(50, 1000);
        assert_eq!(plan.nblocks(), 1);
        assert_eq!(plan.ncolors, 1);
        plan.validate(&args).unwrap();
    }

    #[test]
    fn empty_set_plan() {
        let empty = Set::new("none", 0);
        let plan = Plan::build(&empty, &[], 64);
        assert_eq!(plan.nblocks(), 0);
        assert_eq!(plan.ncolors, 0);
        plan.validate(&[]).unwrap();
    }

    #[test]
    fn indirect_read_only_needs_one_color() {
        let edges = Set::new("edges", 100);
        let cells = Set::new("cells", 101);
        let mut table = Vec::new();
        for e in 0..100u32 {
            table.push(e);
            table.push(e + 1);
        }
        let m = Map::new("pecell", &edges, &cells, 2, table);
        let q = Dat::filled("q", &cells, 1, 0.0f64);
        let args = vec![
            arg_indirect(&q, 0, &m, Access::Read),
            arg_indirect(&q, 1, &m, Access::Read),
        ];
        let plan = Plan::build(&edges, &args, 10);
        assert_eq!(plan.ncolors, 1, "reads never conflict");
        plan.validate(&args).unwrap();
    }

    #[test]
    fn color_blocks_partition_blocks() {
        let (_s, _args, plan) = chain(977, 37);
        let mut seen = vec![false; plan.nblocks()];
        for (c, blocks) in plan.color_blocks.iter().enumerate() {
            for &b in blocks {
                assert_eq!(plan.block_colors[b as usize] as usize, c);
                assert!(!seen[b as usize], "block {b} in two colors");
                seen[b as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn coloring_handles_multiple_write_maps() {
        // One loop incrementing two different dats through two different
        // maps: blocks must be colored against the union of both footprints.
        let edges = Set::new("edges", 120);
        let cells = Set::new("cells", 121);
        let nodes = Set::new("nodes", 61);
        let mut t1 = Vec::new();
        let mut t2 = Vec::new();
        for e in 0..120u32 {
            t1.push(e);
            t1.push(e + 1);
            t2.push(e / 2); // every pair of edges shares a node
        }
        let m1 = Map::new("pecell", &edges, &cells, 2, t1);
        let m2 = Map::new("penode", &edges, &nodes, 1, t2);
        let res = Dat::filled("res", &cells, 1, 0.0f64);
        let w = Dat::filled("w", &nodes, 1, 0.0f64);
        let args = vec![
            arg_indirect(&res, 0, &m1, Access::Inc),
            arg_indirect(&res, 1, &m1, Access::Inc),
            arg_indirect(&w, 0, &m2, Access::Inc),
        ];
        for part in [1, 2, 5, 16] {
            let plan = Plan::build(&edges, &args, part);
            plan.validate(&args)
                .unwrap_or_else(|e| panic!("part={part}: {e}"));
        }
    }

    #[test]
    fn coloring_supports_more_than_64_colors() {
        // Every "edge" of this pathological loop writes target 0, so every
        // block conflicts with every other: colors == blocks.
        let edges = Set::new("edges", 100);
        let hub = Set::new("hub", 1);
        let m = Map::new("all_to_hub", &edges, &hub, 1, vec![0; 100]);
        let d = Dat::filled("d", &hub, 1, 0.0f64);
        let args = vec![arg_indirect(&d, 0, &m, Access::Inc)];
        let plan = Plan::build(&edges, &args, 1);
        assert_eq!(plan.ncolors, 100);
        plan.validate(&args).unwrap();
    }

    #[test]
    fn plan_cache_memoizes() {
        let (set, args, _plan) = chain(100, 10);
        let cache = PlanCache::new();
        let p1 = cache.get(&set, &args, 10);
        let p2 = cache.get(&set, &args, 10);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 1);
        let p3 = cache.get(&set, &args, 20);
        assert!(!Arc::ptr_eq(&p1, &p3));
        assert_eq!(cache.len(), 2);
    }

    /// Regression (tuning collision): two callers asking for the *same*
    /// topology with different block sizes must get different plans from
    /// both cache tiers — before the block size entered the topology hash,
    /// the content-addressed tier could serve a plan built for another job's
    /// tuned block size.
    #[test]
    fn cache_keys_distinguish_plan_params() {
        let (set, args, _plan) = chain(400, 16);
        let cache = PlanCache::new();
        let mut map_hash = |m: &Map| cache.hash_map_table(m);
        assert_ne!(
            topology_hash(&set, &args, 16, &mut map_hash),
            topology_hash(&set, &args, 64, &mut map_hash),
            "part_size ignored by topology_hash"
        );
        assert_ne!(PlanKey::new(&set, &args, 16), PlanKey::new(&set, &args, 64));

        let fine = cache.get(&set, &args, 16);
        let coarse = cache.get(&set, &args, 64);
        assert!(!Arc::ptr_eq(&fine, &coarse), "part_size ignored by key");
        assert_eq!(cache.builds(), 2, "each block size built its own plan");
        assert_eq!(fine.part_size, 16);
        assert_eq!(coarse.part_size, 64);

        // The content-addressed tier dedupes *identical* block sizes on a
        // structurally-equal fresh mesh, and keeps different ones apart.
        let (set2, args2, _p) = chain(400, 16);
        let mut map_hash = |m: &Map| cache.hash_map_table(m);
        assert_eq!(
            topology_hash(&set, &args, 16, &mut map_hash),
            topology_hash(&set2, &args2, 16, &mut map_hash)
        );
        assert!(Arc::ptr_eq(&fine, &cache.get(&set2, &args2, 16)));
        assert!(Arc::ptr_eq(&coarse, &cache.get(&set2, &args2, 64)));
        let medium = cache.get(&set2, &args2, 32);
        assert_eq!(medium.part_size, 32);
        assert_eq!(cache.builds(), 3);
        assert_eq!(cache.topo_hits(), 2);
    }

    #[test]
    fn loop_topology_ignores_plan_params() {
        let (set, args, _plan) = chain(100, 10);
        let cache = PlanCache::new();
        let t = cache.loop_topology(&set, &args);
        // Same loop shape re-declared on fresh objects → same hash.
        let (set2, args2, _p) = chain(100, 10);
        assert_eq!(t, cache.loop_topology(&set2, &args2));
        // Different shape → different hash.
        let (set3, args3, _p) = chain(101, 10);
        assert_ne!(t, cache.loop_topology(&set3, &args3));
    }

    #[test]
    fn validate_catches_bad_coloring() {
        let (_s, args, mut plan) = chain(100, 10);
        // Force all blocks to one color — must fail validation.
        for c in plan.block_colors.iter_mut() {
            *c = 0;
        }
        plan.color_blocks = vec![(0..plan.nblocks() as u32).collect()];
        plan.ncolors = 1;
        assert!(plan.validate(&args).is_err());
    }
}
