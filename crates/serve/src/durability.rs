//! The durability tier: per-dataset snapshot + write-ahead log under
//! the catalog. The file layout, recovery, checkpoint and failure
//! contract is documented on [`crate::ServiceBuilder::durability`].

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use cbb_core::ClipConfig;
use cbb_engine::{
    decode_update_batch, encode_update_batch, read_snapshot, replay_update_batch, write_snapshot,
    ByteReader, Catalog, DatasetId, DatasetStore, Partitioner, PersistError, PersistPartitioner,
    Update,
};
use cbb_rtree::TreeConfig;
use cbb_storage::{recover_wal, FilePageStore, PageStore, WalWriter};

use crate::stats::ServiceStats;

/// Default WAL size that triggers a checkpoint (4 MiB).
pub(crate) const DEFAULT_CHECKPOINT_BYTES: u64 = 4 << 20;

/// Where and how a durable (one-shard) service persists its catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct DurabilityConfig {
    /// Directory holding `catalog.wal` and the per-dataset
    /// snapshot/WAL pairs. Created if missing.
    pub(crate) root: PathBuf,
    /// Roll a dataset's WAL into a fresh snapshot once it exceeds this
    /// many bytes.
    pub(crate) checkpoint_bytes: u64,
}

/// One `catalog.wal` record: a dataset lifecycle event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum AdminRecord {
    Create { id: DatasetId, name: String },
    Drop { id: DatasetId },
}

const ADMIN_CREATE: u8 = 1;
const ADMIN_DROP: u8 = 2;

impl AdminRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            AdminRecord::Create { id, name } => {
                out.push(ADMIN_CREATE);
                out.extend_from_slice(&id.0.to_le_bytes());
                out.extend_from_slice(&(name.len() as u32).to_le_bytes());
                out.extend_from_slice(name.as_bytes());
            }
            AdminRecord::Drop { id } => {
                out.push(ADMIN_DROP);
                out.extend_from_slice(&id.0.to_le_bytes());
            }
        }
        out
    }

    fn decode(payload: &[u8]) -> Result<Self, PersistError> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            ADMIN_CREATE => {
                let id = DatasetId(r.u32()?);
                let len = r.u32()? as usize;
                let name = String::from_utf8(r.take(len)?.to_vec())
                    .map_err(|_| PersistError::Corrupt("admin record name not UTF-8".into()))?;
                AdminRecord::Create { id, name }
            }
            ADMIN_DROP => AdminRecord::Drop {
                id: DatasetId(r.u32()?),
            },
            tag => {
                return Err(PersistError::Corrupt(format!(
                    "unknown admin record tag {tag}"
                )))
            }
        };
        r.finish()?;
        Ok(record)
    }
}

fn catalog_wal_path(root: &Path) -> PathBuf {
    root.join("catalog.wal")
}

fn snap_path(root: &Path, id: DatasetId) -> PathBuf {
    root.join(format!("ds_{}.snap", id.0))
}

fn wal_path(root: &Path, id: DatasetId) -> PathBuf {
    root.join(format!("ds_{}.wal", id.0))
}

/// Replay a `catalog.wal` record list into the live `id -> name` map
/// and the id-space watermark (one past the highest id ever created).
fn fold_admin(records: &[Vec<u8>]) -> Result<(BTreeMap<DatasetId, String>, u32), PersistError> {
    let mut live = BTreeMap::new();
    let mut watermark = 0u32;
    for payload in records {
        match AdminRecord::decode(payload)? {
            AdminRecord::Create { id, name } => {
                watermark = watermark.max(id.0 + 1);
                live.insert(id, name);
            }
            AdminRecord::Drop { id } => {
                live.remove(&id);
            }
        }
    }
    Ok((live, watermark))
}

/// Write `ds` as a fresh snapshot at `path`, atomically: the pages go
/// to a temp file that is fsynced and renamed over the target, so a
/// crash mid-write leaves the previous snapshot intact.
fn write_snapshot_atomic<const D: usize, P>(path: &Path, ds: &DatasetStore<D, P>) -> io::Result<u32>
where
    P: Partitioner<D> + PersistPartitioner,
{
    let tmp = path.with_extension("snap.tmp");
    let mut pages = FilePageStore::create(&tmp)?;
    let written = write_snapshot(&mut pages, ds);
    pages.sync()?;
    drop(pages);
    fs::rename(&tmp, path)?;
    // Make the rename itself durable (best-effort: some filesystems
    // have nothing to sync for a directory).
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(written)
}

/// The running write side of the durability tier: the open WAL
/// writers. All I/O errors panic — a service that cannot persist must
/// not acknowledge (see [`crate::ServiceBuilder::durability`]).
pub(crate) struct Durability {
    root: PathBuf,
    checkpoint_bytes: u64,
    catalog_wal: Mutex<WalWriter>,
    wals: Mutex<BTreeMap<DatasetId, WalWriter>>,
}

/// What [`Durability::recover`] found on disk, for the caller to prime
/// counters with.
pub(crate) struct Recovery {
    /// `(id, name)` of every recovered dataset, ascending by id.
    pub(crate) datasets: Vec<(DatasetId, String)>,
    /// WAL records replayed (applied, not version-skipped) across all
    /// datasets.
    pub(crate) records_replayed: u64,
    /// Snapshot pages read across all datasets.
    pub(crate) pages_read: u64,
}

impl Durability {
    /// Recover everything under `config.root` into `catalog` and open
    /// the WAL writers for what comes next. Torn WAL tails are
    /// truncated; orphan dataset files (from a crash between snapshot
    /// write and `Create` record, or between `Drop` record and file
    /// removal) are deleted.
    pub(crate) fn recover<const D: usize, P>(
        config: &DurabilityConfig,
        catalog: &Catalog<D, P>,
        tree: TreeConfig<D>,
        clip: ClipConfig,
        workers: usize,
    ) -> Result<(Self, Recovery), PersistError>
    where
        P: Partitioner<D> + PersistPartitioner,
    {
        let root = &config.root;
        fs::create_dir_all(root)?;
        let admin = recover_wal(&catalog_wal_path(root))?;
        let (live, watermark) = fold_admin(&admin.records)?;

        let mut recovery = Recovery {
            datasets: Vec::new(),
            records_replayed: 0,
            pages_read: 0,
        };
        let mut wals = BTreeMap::new();
        for (&id, name) in &live {
            let mut pages = FilePageStore::open(&snap_path(root, id)).map_err(|err| {
                PersistError::Corrupt(format!(
                    "dataset {} is live in catalog.wal but its snapshot is unreadable: {err}",
                    id.0
                ))
            })?;
            let contents = read_snapshot::<D, P, _>(&mut pages)?;
            recovery.pages_read += pages.counters().reads;
            let mut store = DatasetStore::restore(contents, tree, clip, workers);
            let tail = recover_wal(&wal_path(root, id))?;
            for payload in &tail.records {
                let (version, ops) = decode_update_batch::<D>(payload)?;
                if replay_update_batch(&mut store, version, &ops, tree, clip)? {
                    recovery.records_replayed += 1;
                }
            }
            catalog
                .restore_dataset(id, name, store)
                .map_err(|err| PersistError::Corrupt(format!("catalog restore failed: {err}")))?;
            wals.insert(id, WalWriter::append_to(&wal_path(root, id))?);
            recovery.datasets.push((id, name.clone()));
        }
        // Ids of datasets dropped before the crash stay retired.
        catalog.reserve_ids(watermark);

        // Orphan cleanup: dataset files whose id is not live.
        if let Ok(entries) = fs::read_dir(root) {
            for entry in entries.flatten() {
                let file = entry.file_name();
                let Some(name) = file.to_str() else { continue };
                let Some(id) = orphan_candidate(name) else {
                    continue;
                };
                if !live.contains_key(&DatasetId(id)) {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let durability = Durability {
            root: root.clone(),
            checkpoint_bytes: config.checkpoint_bytes,
            catalog_wal: Mutex::new(WalWriter::append_to(&catalog_wal_path(root))?),
            wals: Mutex::new(wals),
        };
        Ok((durability, recovery))
    }

    /// Persist one applied micro-batch: append its WAL record and
    /// fsync, **before** the caller releases the store lock or wakes
    /// any waiter. Rolls the WAL into a checkpoint snapshot past the
    /// size threshold.
    pub(crate) fn commit_batch<const D: usize, P>(
        &self,
        id: DatasetId,
        store: &DatasetStore<D, P>,
        ops: &[Update<D>],
        stats: &ServiceStats,
    ) where
        P: Partitioner<D> + PersistPartitioner,
    {
        let payload = encode_update_batch(store.version(), ops);
        let mut wals = self.wals.lock().expect("durability wal map poisoned");
        let writer = wals
            .entry(id)
            .or_insert_with(|| open_wal(&self.root, id, "commit"));
        writer
            .append(&payload)
            .expect("durability: WAL append failed");
        let fsync_t = Instant::now();
        writer.sync().expect("durability: WAL fsync failed");
        stats.record_wal_append(payload.len() as u64 + 8, elapsed_ns(fsync_t));
        if writer.bytes() >= self.checkpoint_bytes {
            write_snapshot_atomic(&snap_path(&self.root, id), store)
                .expect("durability: checkpoint snapshot failed");
            *writer =
                WalWriter::create(&wal_path(&self.root, id)).expect("durability: WAL reset failed");
            stats.checkpoints.inc();
        }
    }

    /// Persist a freshly created dataset: snapshot first, `Create`
    /// record second — a crash in between leaves an orphan snapshot,
    /// never a live dataset without bytes.
    pub(crate) fn record_create<const D: usize, P>(
        &self,
        id: DatasetId,
        name: &str,
        store: &DatasetStore<D, P>,
    ) where
        P: Partitioner<D> + PersistPartitioner,
    {
        write_snapshot_atomic(&snap_path(&self.root, id), store)
            .expect("durability: create snapshot failed");
        let wal =
            WalWriter::create(&wal_path(&self.root, id)).expect("durability: WAL create failed");
        self.wals
            .lock()
            .expect("durability wal map poisoned")
            .insert(id, wal);
        let record = AdminRecord::Create {
            id,
            name: name.to_string(),
        }
        .encode();
        let mut catalog_wal = self
            .catalog_wal
            .lock()
            .expect("durability catalog.wal poisoned");
        catalog_wal
            .append(&record)
            .expect("durability: catalog.wal append failed");
        catalog_wal
            .sync()
            .expect("durability: catalog.wal fsync failed");
    }

    /// Persist a drop: `Drop` record first (making the id dead), file
    /// removal second (recovery deletes leftovers as orphans).
    pub(crate) fn record_drop(&self, id: DatasetId) {
        let record = AdminRecord::Drop { id }.encode();
        {
            let mut catalog_wal = self
                .catalog_wal
                .lock()
                .expect("durability catalog.wal poisoned");
            catalog_wal
                .append(&record)
                .expect("durability: catalog.wal append failed");
            catalog_wal
                .sync()
                .expect("durability: catalog.wal fsync failed");
        }
        self.wals
            .lock()
            .expect("durability wal map poisoned")
            .remove(&id);
        let _ = fs::remove_file(snap_path(&self.root, id));
        let _ = fs::remove_file(wal_path(&self.root, id));
    }

    /// Persist a `SwapData`: fresh snapshot, then WAL reset. A crash
    /// in between leaves pre-swap records the version check skips.
    /// Called with the dataset's write lock held, so the snapshot is a
    /// stable image of the swapped-in state.
    pub(crate) fn record_swap<const D: usize, P>(&self, id: DatasetId, store: &DatasetStore<D, P>)
    where
        P: Partitioner<D> + PersistPartitioner,
    {
        write_snapshot_atomic(&snap_path(&self.root, id), store)
            .expect("durability: swap snapshot failed");
        let wal =
            WalWriter::create(&wal_path(&self.root, id)).expect("durability: WAL reset failed");
        self.wals
            .lock()
            .expect("durability wal map poisoned")
            .insert(id, wal);
    }
}

fn open_wal(root: &Path, id: DatasetId, context: &str) -> WalWriter {
    WalWriter::append_to(&wal_path(root, id))
        .unwrap_or_else(|err| panic!("durability: WAL open for {context} failed: {err}"))
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `ds_<id>.snap` / `ds_<id>.wal` / their temp files → the id.
fn orphan_candidate(file: &str) -> Option<u32> {
    let rest = file.strip_prefix("ds_")?;
    let digits = rest
        .strip_suffix(".snap")
        .or_else(|| rest.strip_suffix(".wal"))
        .or_else(|| rest.strip_suffix(".snap.tmp"))?;
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admin_records_round_trip() {
        for record in [
            AdminRecord::Create {
                id: DatasetId(7),
                name: "roads".into(),
            },
            AdminRecord::Drop { id: DatasetId(0) },
        ] {
            assert_eq!(AdminRecord::decode(&record.encode()).unwrap(), record);
        }
        assert!(AdminRecord::decode(&[9]).is_err(), "unknown tag refused");
        assert!(
            AdminRecord::decode(&AdminRecord::Drop { id: DatasetId(1) }.encode()[..3]).is_err(),
            "truncated record refused"
        );
    }

    #[test]
    fn fold_admin_tracks_live_set_and_watermark() {
        let records: Vec<Vec<u8>> = [
            AdminRecord::Create {
                id: DatasetId(0),
                name: "a".into(),
            },
            AdminRecord::Create {
                id: DatasetId(1),
                name: "b".into(),
            },
            AdminRecord::Drop { id: DatasetId(1) },
        ]
        .iter()
        .map(AdminRecord::encode)
        .collect();
        let (live, watermark) = fold_admin(&records).unwrap();
        assert_eq!(live.len(), 1);
        assert_eq!(live.get(&DatasetId(0)), Some(&"a".to_string()));
        assert_eq!(watermark, 2, "dropped ids stay retired");
    }

    #[test]
    fn orphan_candidates_parse() {
        assert_eq!(orphan_candidate("ds_3.snap"), Some(3));
        assert_eq!(orphan_candidate("ds_12.wal"), Some(12));
        assert_eq!(orphan_candidate("ds_0.snap.tmp"), Some(0));
        assert_eq!(orphan_candidate("catalog.wal"), None);
        assert_eq!(orphan_candidate("ds_x.snap"), None);
    }
}
