//! Dataset persistence: snapshot and WAL-record codecs over the
//! `cbb-storage` page layer.
//!
//! A [`crate::DatasetStore`] becomes durable as two files managed by
//! the serve layer:
//!
//! * a **snapshot** — the full store state (partitioner, object arena,
//!   per-slot liveness/free state, version) written
//!   through [`write_snapshot`] into any [`PageStore`]. Live rects ride
//!   in the paper's own Figure-4a page layout: each arena page is a
//!   level-0 node whose entries are `(rect, DataId(slot))`, encoded by
//!   the existing [`cbb_storage::codec`]. Forests are *not* persisted —
//!   they are derived state, rebuilt over the live slots on recovery
//!   ([`DatasetStore::restore`]).
//! * a **WAL tail** — one [`encode_update_batch`] record per applied
//!   update micro-batch (already an atomic one-[`DataVersion`] unit).
//!   Replay ([`replay_update_batch`]) is idempotent by version: records
//!   at or below the store's version are skipped, so a snapshot taken
//!   mid-log replays cleanly over any prefix.
//!
//! Determinism note: replaying the logged batches over the restored
//! store must reassign exactly the ids the original run assigned.
//! That is why the snapshot carries the free list: insert slot choice
//! (`free.pop()`) depends on it, and sweep timing on it and the
//! tombstone count under the fixed [`crate::COMPACT_DEAD_FRACTION`],
//! a constant rather than persisted state.
//!
//! Every section is checksummed (IEEE CRC-32, the WAL's checksum): a
//! flipped bit anywhere in a snapshot surfaces as
//! [`PersistError::Corrupt`] instead of a silently wrong dataset.

use cbb_core::ClipConfig;
use cbb_geom::{Point, Rect};
use cbb_rtree::config::{entry_bytes, NODE_HEADER_BYTES, PAGE_SIZE};
use cbb_rtree::{DataId, Entry, Node, TreeConfig};
use cbb_storage::codec::{decode_node, encode_node};
use cbb_storage::{crc32, PageStore};

use crate::catalog::DatasetStore;
use crate::partition::{AnyPartitioner, DataVersion, Partitioner};
use crate::shard::ShardTiling;
use crate::update::Update;

/// Identifies a snapshot header page.
pub const SNAP_MAGIC: [u8; 8] = *b"CBBSNAP1";

/// Snapshot format version (bumped on layout changes). Format `1`
/// carried a per-store compaction threshold in its header; it decodes
/// as [`PersistError::Corrupt`].
pub const SNAP_FORMAT: u32 = 2;

/// Why a snapshot or WAL record failed to decode.
#[derive(Debug)]
pub enum PersistError {
    /// The bytes are not a valid encoding (bad magic, failed checksum,
    /// truncated section, out-of-range value).
    Corrupt(String),
    /// The underlying storage failed.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Corrupt(why) => write!(f, "corrupt persisted state: {why}"),
            PersistError::Io(e) => write!(f, "storage I/O failed: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

fn corrupt(why: impl Into<String>) -> PersistError {
    PersistError::Corrupt(why.into())
}

// ---------------------------------------------------------------------
// Byte codec helpers
// ---------------------------------------------------------------------

/// Append a `u32` little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` little-endian (bit pattern, so `INFINITY` and
/// friends round-trip exactly).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a rectangle: `D` low then `D` high coordinates.
pub fn put_rect<const D: usize>(out: &mut Vec<u8>, r: &Rect<D>) {
    for i in 0..D {
        put_f64(out, r.lo[i]);
    }
    for i in 0..D {
        put_f64(out, r.hi[i]);
    }
}

/// Append a point: `D` coordinates.
pub fn put_point<const D: usize>(out: &mut Vec<u8>, p: &Point<D>) {
    for i in 0..D {
        put_f64(out, p[i]);
    }
}

/// Bounds-checked front-to-back reader over an encoded buffer — the
/// decoding twin of the `put_*` helpers. Never panics on short input;
/// every overrun is a [`PersistError::Corrupt`].
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("truncated encoding"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Next byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Next little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Next little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next little-endian `f64` (bit pattern).
    pub fn f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Next point (`D` coordinates).
    pub fn point<const D: usize>(&mut self) -> Result<Point<D>, PersistError> {
        let mut c = [0.0; D];
        for v in c.iter_mut() {
            *v = self.f64()?;
        }
        Ok(Point(c))
    }

    /// Next rectangle (`D` low, `D` high coordinates).
    pub fn rect<const D: usize>(&mut self) -> Result<Rect<D>, PersistError> {
        let lo = self.point::<D>()?;
        let hi = self.point::<D>()?;
        Ok(Rect::new(lo, hi))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the buffer was consumed exactly.
    pub fn finish(self) -> Result<(), PersistError> {
        if self.remaining() != 0 {
            return Err(corrupt("trailing bytes after encoding"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Partitioner codecs
// ---------------------------------------------------------------------

/// A partitioner that can round-trip through bytes — the bound the
/// durable serve layer adds on top of [`Partitioner`]. Each impl owns
/// its own self-contained encoding; [`AnyPartitioner`] tags the kind,
/// so a snapshot records *which* partitioner a dataset was fitted
/// with, not just its parameters.
pub trait PersistPartitioner: Sized {
    /// Append this partitioner's byte encoding.
    fn encode_blob(&self, out: &mut Vec<u8>);
    /// Decode one partitioner from the front of `r`.
    fn decode_blob(r: &mut ByteReader<'_>) -> Result<Self, PersistError>;
}

impl<const D: usize> PersistPartitioner for AnyPartitioner<D> {
    fn encode_blob(&self, out: &mut Vec<u8>) {
        match self {
            AnyPartitioner::Adaptive(p) => {
                out.push(1);
                p.encode_blob(out);
            }
            AnyPartitioner::Quadtree(p) => {
                out.push(2);
                p.encode_blob(out);
            }
        }
    }

    fn decode_blob(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        match r.u8()? {
            1 => Ok(AnyPartitioner::Adaptive(crate::AdaptiveGrid::decode_blob(
                r,
            )?)),
            2 => Ok(AnyPartitioner::Quadtree(
                crate::QuadtreePartitioner::decode_blob(r)?,
            )),
            tag => Err(corrupt(format!("unknown partitioner tag {tag}"))),
        }
    }
}

impl<P: PersistPartitioner> PersistPartitioner for ShardTiling<P> {
    fn encode_blob(&self, out: &mut Vec<u8>) {
        self.inner().encode_blob(out);
        let tiles = self.tiles();
        put_u64(out, tiles.start as u64);
        put_u64(out, tiles.end as u64);
    }

    fn decode_blob(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let inner = P::decode_blob(r)?;
        let lo = r.u64()? as usize;
        let hi = r.u64()? as usize;
        if lo > hi {
            return Err(corrupt("shard tiling with inverted tile range"));
        }
        Ok(ShardTiling::new(inner, lo..hi))
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// Per-slot arena state in the snapshot's 2-bit state map.
const SLOT_FREE: u8 = 0; // dead, on the free list (reusable)
const SLOT_LIVE: u8 = 1;
const SLOT_TOMBSTONE: u8 = 2; // dead, not yet swept

/// Level-0 node entries that fit one page — the arena-section packing
/// factor (113 for `D = 2`, the paper's Figure-4a fan-out).
pub const fn arena_entries_per_page(d: usize) -> usize {
    (PAGE_SIZE - NODE_HEADER_BYTES) / entry_bytes(d)
}

const fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

/// Everything [`read_snapshot`] recovers: the arena, its liveness and
/// free list, the partitioner and the version — all of a store's state
/// that is data. [`DatasetStore::restore`] makes a store from it and
/// builds the forest over the live slots; slot reclamation needs no
/// persisted setting, its threshold is the constant
/// [`crate::COMPACT_DEAD_FRACTION`].
pub struct SnapshotContents<const D: usize, P> {
    /// The partitioner the dataset was fitted with.
    pub partitioner: P,
    /// The full object arena (dead slots hold a zero placeholder —
    /// their values are unobservable by queries and replay).
    pub objects: Vec<Rect<D>>,
    /// Per-slot liveness.
    pub live: Vec<bool>,
    /// Dead slots that were reusable at snapshot time.
    pub free: Vec<u32>,
    /// The version queries were answered from at snapshot time.
    pub version: DataVersion,
}

fn pack_states(states: &[u8]) -> Vec<u8> {
    let mut packed = vec![0u8; div_ceil(states.len(), 4)];
    for (slot, &s) in states.iter().enumerate() {
        packed[slot / 4] |= s << ((slot % 4) * 2);
    }
    packed
}

fn write_section<S: PageStore>(store: &mut S, first_page: u32, bytes: &[u8]) -> u32 {
    let pages = div_ceil(bytes.len(), PAGE_SIZE) as u32;
    let mut page = vec![0u8; PAGE_SIZE];
    for i in 0..pages {
        let start = i as usize * PAGE_SIZE;
        let end = (start + PAGE_SIZE).min(bytes.len());
        page.fill(0);
        page[..end - start].copy_from_slice(&bytes[start..end]);
        store.write_page(first_page + i, &page);
    }
    pages
}

fn read_section<S: PageStore>(store: &mut S, first_page: u32, len: usize) -> Vec<u8> {
    let pages = div_ceil(len, PAGE_SIZE) as u32;
    let mut bytes = vec![0u8; pages as usize * PAGE_SIZE];
    for i in 0..pages {
        let start = i as usize * PAGE_SIZE;
        store.read_page(first_page + i, &mut bytes[start..start + PAGE_SIZE]);
    }
    bytes.truncate(len);
    bytes
}

/// Serialize the full `ds` state into `store`, starting at page 0.
/// Returns the number of pages written. The caller owns making the
/// write atomic (the serve layer writes a temp file and renames).
pub fn write_snapshot<const D: usize, P, S>(store: &mut S, ds: &DatasetStore<D, P>) -> u32
where
    P: Partitioner<D> + PersistPartitioner,
    S: PageStore,
{
    // Partitioner blob.
    let mut blob = Vec::new();
    ds.partitioner().encode_blob(&mut blob);

    // 2-bit per-slot state map.
    let mut states = vec![SLOT_TOMBSTONE; ds.arena_len()];
    for (slot, &live) in ds.live().iter().enumerate() {
        if live {
            states[slot] = SLOT_LIVE;
        }
    }
    for slot in ds.free_list() {
        states[slot as usize] = SLOT_FREE;
    }
    let packed = pack_states(&states);

    // Arena pages: live slots ascending, packed as level-0 nodes.
    let cap = arena_entries_per_page(D);
    let live_slots: Vec<u32> = (0..ds.arena_len() as u32)
        .filter(|&s| ds.live()[s as usize])
        .collect();
    let arena_first =
        1 + div_ceil(blob.len(), PAGE_SIZE) as u32 + div_ceil(packed.len(), PAGE_SIZE) as u32;
    let mut arena_page_crcs = Vec::new();
    for (i, chunk) in live_slots.chunks(cap).enumerate() {
        let mut node = Node::<D>::new(0);
        for &slot in chunk {
            node.entries
                .push(Entry::data(ds.objects()[slot as usize], DataId(slot)));
        }
        node.recompute_mbb();
        let page = encode_node(&node);
        put_u32(&mut arena_page_crcs, crc32(&page));
        store.write_page(arena_first + i as u32, &page);
    }

    // Header (page 0), checksummed last-field-over-the-rest.
    let mut header = Vec::with_capacity(80);
    header.extend_from_slice(&SNAP_MAGIC);
    put_u32(&mut header, SNAP_FORMAT);
    put_u32(&mut header, D as u32);
    put_u64(&mut header, ds.version().0);
    put_u64(&mut header, ds.arena_len() as u64);
    put_u64(&mut header, live_slots.len() as u64);
    put_u32(&mut header, blob.len() as u32);
    put_u32(&mut header, crc32(&blob));
    put_u32(&mut header, crc32(&packed));
    put_u32(&mut header, crc32(&arena_page_crcs));
    let hcrc = crc32(&header);
    put_u32(&mut header, hcrc);
    let mut page0 = vec![0u8; PAGE_SIZE];
    page0[..header.len()].copy_from_slice(&header);
    store.write_page(0, &page0);

    let blob_pages = write_section(store, 1, &blob);
    let state_pages = write_section(store, 1 + blob_pages, &packed);
    debug_assert_eq!(arena_first, 1 + blob_pages + state_pages);
    arena_first + div_ceil(live_slots.len(), cap) as u32
}

/// Decode a snapshot previously written by [`write_snapshot`]. Any
/// damage — header, partitioner blob, state map, or an arena page —
/// fails with [`PersistError::Corrupt`] via the section checksums.
///
/// An [`AnyPartitioner`] blob is tagged `1` (adaptive grid) or `2`
/// (quadtree). Tag `0` belonged to a retired equal-width grid type; a
/// blob carrying it decodes as an unknown tag, i.e. `Corrupt`.
pub fn read_snapshot<const D: usize, P, S>(
    store: &mut S,
) -> Result<SnapshotContents<D, P>, PersistError>
where
    P: Partitioner<D> + PersistPartitioner,
    S: PageStore,
{
    if store.page_count() == 0 {
        return Err(corrupt("empty snapshot file"));
    }
    let mut page0 = vec![0u8; PAGE_SIZE];
    store.read_page(0, &mut page0);
    let mut r = ByteReader::new(&page0);
    if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
        return Err(corrupt("bad snapshot magic"));
    }
    if r.u32()? != SNAP_FORMAT {
        return Err(corrupt("unknown snapshot format"));
    }
    if r.u32()? != D as u32 {
        return Err(corrupt("snapshot dimensionality mismatch"));
    }
    let version = DataVersion(r.u64()?);
    let arena_len = r.u64()? as usize;
    let live_count = r.u64()? as usize;
    let blob_len = r.u32()? as usize;
    let part_crc = r.u32()?;
    let state_crc = r.u32()?;
    let arena_crc = r.u32()?;
    let header_len = SNAP_MAGIC.len() + 4 + 4 + 8 + 8 + 8 + 4 + 4 + 4 + 4;
    let hcrc = r.u32()?;
    if crc32(&page0[..header_len]) != hcrc {
        return Err(corrupt("snapshot header checksum mismatch"));
    }
    if live_count > arena_len {
        return Err(corrupt("live count exceeds arena length"));
    }

    let blob_pages = div_ceil(blob_len, PAGE_SIZE) as u32;
    let state_len = div_ceil(arena_len, 4);
    let state_pages = div_ceil(state_len, PAGE_SIZE) as u32;
    let cap = arena_entries_per_page(D);
    let arena_pages = div_ceil(live_count, cap) as u32;
    let total = 1 + blob_pages + state_pages + arena_pages;
    if store.page_count() < total {
        return Err(corrupt("snapshot truncated mid-section"));
    }

    let blob = read_section(store, 1, blob_len);
    if crc32(&blob) != part_crc {
        return Err(corrupt("partitioner blob checksum mismatch"));
    }
    let mut br = ByteReader::new(&blob);
    let partitioner = P::decode_blob(&mut br)?;
    br.finish()?;

    let packed = read_section(store, 1 + blob_pages, state_len);
    if crc32(&packed) != state_crc {
        return Err(corrupt("state map checksum mismatch"));
    }
    let mut live = vec![false; arena_len];
    let mut free = Vec::new();
    for slot in 0..arena_len {
        match (packed[slot / 4] >> ((slot % 4) * 2)) & 0b11 {
            SLOT_FREE => free.push(slot as u32),
            SLOT_LIVE => live[slot] = true,
            SLOT_TOMBSTONE => {}
            _ => return Err(corrupt("invalid arena slot state")),
        }
    }
    if live.iter().filter(|&&l| l).count() != live_count {
        return Err(corrupt("state map live count disagrees with header"));
    }

    let zero = Rect::new(Point([0.0; D]), Point([0.0; D]));
    let mut objects = vec![zero; arena_len];
    let mut seen = 0usize;
    let mut arena_page_crcs = Vec::new();
    let mut page = vec![0u8; PAGE_SIZE];
    let arena_first = 1 + blob_pages + state_pages;
    for i in 0..arena_pages {
        store.read_page(arena_first + i, &mut page);
        put_u32(&mut arena_page_crcs, crc32(&page));
        let node = decode_node::<D>(&page);
        if node.level != 0 {
            return Err(corrupt("arena page is not a leaf node"));
        }
        for e in &node.entries {
            let slot = e.child.data_id().0 as usize;
            if slot >= arena_len || !live[slot] {
                return Err(corrupt("arena entry addresses a non-live slot"));
            }
            objects[slot] = e.mbb;
            seen += 1;
        }
    }
    if crc32(&arena_page_crcs) != arena_crc {
        return Err(corrupt("arena section checksum mismatch"));
    }
    if seen != live_count {
        return Err(corrupt("arena section entry count disagrees with header"));
    }

    Ok(SnapshotContents {
        partitioner,
        objects,
        live,
        free,
        version,
    })
}

// ---------------------------------------------------------------------
// WAL record codec + replay
// ---------------------------------------------------------------------

/// Encode one applied update micro-batch as a WAL record payload:
/// the [`DataVersion`] the batch produced, then the full op list —
/// including ops that individually no-opped, so replay re-applies the
/// batch exactly as the original `apply_updates` call saw it.
pub fn encode_update_batch<const D: usize>(version: DataVersion, ops: &[Update<D>]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + ops.len() * (1 + 2 * D * 8));
    put_u64(&mut out, version.0);
    put_u32(&mut out, ops.len() as u32);
    for op in ops {
        match *op {
            Update::Insert(rect) => {
                out.push(0);
                put_rect(&mut out, &rect);
            }
            Update::Delete(id) => {
                out.push(1);
                put_u32(&mut out, id.0);
            }
        }
    }
    out
}

/// Decode a WAL record payload written by [`encode_update_batch`].
pub fn decode_update_batch<const D: usize>(
    buf: &[u8],
) -> Result<(DataVersion, Vec<Update<D>>), PersistError> {
    let mut r = ByteReader::new(buf);
    let version = DataVersion(r.u64()?);
    let count = r.u32()? as usize;
    // The count is untrusted until the ops decode: reserve no more than
    // the payload can hold at the smallest encoded op (a 5-byte delete),
    // so a corrupt count fails as `Corrupt` instead of a huge allocation.
    let mut ops = Vec::with_capacity(count.min(r.remaining() / 5));
    for _ in 0..count {
        ops.push(match r.u8()? {
            0 => Update::Insert(r.rect::<D>()?),
            1 => Update::Delete(DataId(r.u32()?)),
            tag => return Err(corrupt(format!("unknown update tag {tag}"))),
        });
    }
    r.finish()?;
    Ok((version, ops))
}

/// Replay one logged batch into `store`, idempotently: records at or
/// below the store's current version are skipped (they are already in
/// the snapshot), later records must advance the version to exactly
/// theirs — anything else means the log does not belong to this
/// snapshot lineage. Returns whether the batch was applied.
pub fn replay_update_batch<const D: usize, P: Partitioner<D>>(
    store: &mut DatasetStore<D, P>,
    version: DataVersion,
    ops: &[Update<D>],
    tree: TreeConfig<D>,
    clip: ClipConfig,
) -> Result<bool, PersistError> {
    if version.0 <= store.version().0 {
        return Ok(false);
    }
    if version.0 != store.version().0 + 1 {
        return Err(corrupt(format!(
            "WAL gap: store at version {}, next record at {}",
            store.version().0,
            version.0
        )));
    }
    store.apply_updates(ops, tree, clip);
    if store.version() != version {
        return Err(corrupt(
            "replayed batch did not reproduce the logged version",
        ));
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quadtree::QuadtreePartitioner;
    use crate::AdaptiveGrid;
    use cbb_core::ClipMethod;
    use cbb_geom::SplitMix64;
    use cbb_rtree::Variant;
    use cbb_storage::{FaultyPageStore, MemPageStore};

    fn r2(lx: f64, ly: f64, hx: f64, hy: f64) -> Rect<2> {
        Rect::new(Point([lx, ly]), Point([hx, hy]))
    }

    fn boxes(n: usize, seed: u64) -> Vec<Rect<2>> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|_| {
                let x = rng.gen_range(0.0, 90.0);
                let y = rng.gen_range(0.0, 90.0);
                r2(
                    x,
                    y,
                    x + rng.gen_range(0.5, 8.0),
                    y + rng.gen_range(0.5, 8.0),
                )
            })
            .collect()
    }

    fn tree() -> TreeConfig<2> {
        TreeConfig::tiny(Variant::RStar)
    }

    fn clip() -> ClipConfig {
        ClipConfig::paper_default::<2>(ClipMethod::Stairline)
    }

    fn any_partitioners(data: &[Rect<2>]) -> Vec<AnyPartitioner<2>> {
        let domain = r2(0.0, 0.0, 100.0, 100.0);
        vec![
            AdaptiveGrid::from_sample(domain, [3, 3], &[]).into(),
            AdaptiveGrid::from_sample(domain, [3, 4], data).into(),
            QuadtreePartitioner::build(domain, data, 25).into(),
        ]
    }

    #[test]
    fn partitioner_blobs_round_trip() {
        let data = boxes(120, 3);
        for p in any_partitioners(&data) {
            let mut blob = Vec::new();
            p.encode_blob(&mut blob);
            let mut r = ByteReader::new(&blob);
            let back = AnyPartitioner::<2>::decode_blob(&mut r).expect("round trip");
            r.finish().expect("fully consumed");
            assert_eq!(p, back);
            // The decoded partitioner behaves identically.
            for rect in &data[..20] {
                assert_eq!(p.covering_tiles(rect), back.covering_tiles(rect));
            }
        }
    }

    #[test]
    fn retired_partitioner_tag_is_corrupt() {
        // Tag 0 named an equal-width grid type that no longer exists. A
        // blob carrying it (domain, then per-axis tile counts) must be
        // rejected as corrupt, neither decoded nor panicked on.
        let mut blob = vec![0u8];
        put_rect(&mut blob, &r2(0.0, 0.0, 100.0, 100.0));
        put_u32(&mut blob, 3);
        put_u32(&mut blob, 3);
        let err = AnyPartitioner::<2>::decode_blob(&mut ByteReader::new(&blob)).unwrap_err();
        assert!(
            matches!(&err, PersistError::Corrupt(why) if why == "unknown partitioner tag 0"),
            "{err}"
        );
    }

    #[test]
    fn shard_tiling_blob_round_trips() {
        let p = ShardTiling::new(
            AdaptiveGrid::from_sample(r2(0.0, 0.0, 10.0, 10.0), [4, 4], &[]),
            3..9,
        );
        let mut blob = Vec::new();
        p.encode_blob(&mut blob);
        let mut r = ByteReader::new(&blob);
        let back = ShardTiling::<AdaptiveGrid<2>>::decode_blob(&mut r).expect("round trip");
        assert_eq!(back.tiles(), 3..9);
        assert_eq!(back.inner(), p.inner());
    }

    /// Snapshot → restore round-trips a churned store exactly: same
    /// version, arena, liveness, free list, answers, and same replay
    /// behaviour (id assignment, sweep timing) afterwards.
    #[test]
    fn snapshot_round_trips_churned_store() {
        let data = boxes(90, 7);
        for p in any_partitioners(&data) {
            let mut ds = DatasetStore::build(p, &data, tree(), clip(), 2);
            // Churn: deletes past the sweep threshold (30 of 90), fresh
            // inserts into reclaimed slots, then one more delete, so the
            // snapshot carries tombstones AND free slots.
            let deletes: Vec<Update<2>> = (0..30).map(|i| Update::Delete(DataId(i * 3))).collect();
            assert_eq!(
                ds.apply_updates(&deletes, tree(), clip()).slots_reclaimed,
                30
            );
            ds.apply_updates(
                &[
                    Update::Insert(r2(4.0, 4.0, 6.0, 6.0)),
                    Update::Insert(r2(70.0, 70.0, 75.0, 75.0)),
                    Update::Delete(DataId(1)),
                ],
                tree(),
                clip(),
            );
            assert!(ds.free_slots() >= 1, "snapshot must carry free slots");
            let tombstones = ds.arena_len() - ds.live_count() - ds.free_slots();
            assert!(tombstones >= 1, "snapshot must carry tombstones");

            let mut store = MemPageStore::new();
            let pages = write_snapshot(&mut store, &ds);
            assert_eq!(pages, store.page_count());
            let contents = read_snapshot::<2, AnyPartitioner<2>, _>(&mut store).expect("clean");
            let back = DatasetStore::restore(contents, tree(), clip(), 2);

            assert_eq!(back.version(), ds.version());
            assert_eq!(back.live(), ds.live());
            assert_eq!(back.free_list(), ds.free_list());
            assert_eq!(back.live_rects(), ds.live_rects());
            // Queries answer identically (ranges as sets — traversal
            // order differs between grown and rebuilt trees; see the
            // batch.rs rebuild oracle) and kNN byte-equal.
            let probe = r2(0.0, 0.0, 50.0, 50.0);
            let mut got = back.run(&[probe], 1, true).results.remove(0);
            let mut want = ds.run(&[probe], 1, true).results.remove(0);
            got.sort();
            want.sort();
            assert_eq!(got, want);
            assert_eq!(
                back.run_knn(&[(Point([30.0, 30.0]), 5)], 1).results,
                ds.run_knn(&[(Point([30.0, 30.0]), 5)], 1).results
            );
            // Replay determinism: the next insert takes the same slot,
            // and a delete-everything batch sweeps the same slots.
            let up = [Update::Insert(r2(1.0, 1.0, 2.0, 2.0))];
            let mut ds2 = ds;
            let mut back2 = back;
            assert_eq!(
                ds2.apply_updates(&up, tree(), clip()).inserted_ids(),
                back2.apply_updates(&up, tree(), clip()).inserted_ids()
            );
            let all: Vec<Update<2>> = (0..ds2.arena_len() as u32)
                .map(|i| Update::Delete(DataId(i)))
                .collect();
            assert_eq!(
                ds2.apply_updates(&all, tree(), clip()).slots_reclaimed,
                back2.apply_updates(&all, tree(), clip()).slots_reclaimed
            );
            assert_eq!(back2.free_list(), ds2.free_list());
        }
    }

    /// A format-1 header (which held an 8-byte compaction threshold
    /// after the blob length) is refused at its format field, before
    /// any later field is read, even with a valid checksum over it.
    #[test]
    fn retired_snapshot_format_is_corrupt() {
        let mut header = SNAP_MAGIC.to_vec();
        put_u32(&mut header, 1); // format
        put_u32(&mut header, 2); // D
        for v in [3, 10, 10] {
            put_u64(&mut header, v); // version, arena and live counts
        }
        put_u32(&mut header, 40); // blob length
        put_f64(&mut header, 0.3); // the retired threshold
        for _ in 0..3 {
            put_u32(&mut header, 0); // section checksums
        }
        let hcrc = crc32(&header);
        put_u32(&mut header, hcrc);
        let mut page0 = vec![0u8; PAGE_SIZE];
        page0[..header.len()].copy_from_slice(&header);
        let mut store = MemPageStore::new();
        store.write_page(0, &page0);

        let err = read_snapshot::<2, AnyPartitioner<2>, _>(&mut store)
            .err()
            .expect("refused");
        assert!(
            matches!(&err, PersistError::Corrupt(why) if why == "unknown snapshot format"),
            "{err}"
        );
    }

    #[test]
    fn wal_batch_codec_round_trips() {
        let ops: Vec<Update<2>> = vec![
            Update::Insert(r2(1.0, 2.0, 3.0, 4.0)),
            Update::Delete(DataId(17)),
            Update::Insert(r2(-5.0, -5.0, 0.0, 0.0)),
        ];
        let payload = encode_update_batch(DataVersion(42), &ops);
        let (v, back) = decode_update_batch::<2>(&payload).expect("round trip");
        assert_eq!(v, DataVersion(42));
        assert_eq!(back, ops);
        assert!(decode_update_batch::<2>(&payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn wal_batch_with_huge_op_count_is_corrupt_not_an_abort() {
        // Version, then `count = u32::MAX` and no ops: 12 bytes.
        let mut payload = 7u64.to_le_bytes().to_vec();
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_update_batch::<2>(&payload),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn replay_is_idempotent_and_gap_checked() {
        let data = boxes(40, 11);
        let mut ds = DatasetStore::build(
            AdaptiveGrid::from_sample(r2(0.0, 0.0, 100.0, 100.0), [3, 3], &[]),
            &data,
            tree(),
            clip(),
            1,
        );
        let ops = [Update::Insert(r2(9.0, 9.0, 10.0, 10.0))];
        ds.apply_updates(&ops, tree(), clip());
        assert_eq!(ds.version(), DataVersion(1));
        // At-or-below records are skipped.
        assert!(!replay_update_batch(&mut ds, DataVersion(1), &ops, tree(), clip()).unwrap());
        assert_eq!(ds.live_count(), 41);
        // The next version applies.
        assert!(replay_update_batch(&mut ds, DataVersion(2), &ops, tree(), clip()).unwrap());
        assert_eq!(ds.version(), DataVersion(2));
        // A gap is corruption, not silence.
        assert!(replay_update_batch(&mut ds, DataVersion(9), &ops, tree(), clip()).is_err());
    }

    /// The fault-injection satellite at the engine layer: a flipped bit
    /// in any snapshot section is detected, never deserialized into a
    /// wrong store.
    #[test]
    fn corrupt_snapshot_pages_are_detected() {
        let data = boxes(260, 13); // > 1 arena page at D=2 (113/page)
        let ds = DatasetStore::build(
            AnyPartitioner::from(AdaptiveGrid::from_sample(
                r2(0.0, 0.0, 100.0, 100.0),
                [4, 4],
                &[],
            )),
            &data,
            tree(),
            clip(),
            1,
        );
        let mut clean = MemPageStore::new();
        let pages = write_snapshot(&mut clean, &ds);
        assert!(pages >= 4, "header + blob + state + 2 arena pages");
        for bad_page in 0..pages {
            let mut store = MemPageStore::new();
            write_snapshot(&mut store, &ds);
            let mut faulty = FaultyPageStore::new(store, vec![bad_page]);
            let err = read_snapshot::<2, AnyPartitioner<2>, _>(&mut faulty);
            assert!(
                err.is_err(),
                "corruption in page {bad_page}/{pages} must be detected"
            );
        }
    }
}
