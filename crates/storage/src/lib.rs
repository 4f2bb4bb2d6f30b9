//! # cbb-storage — paged storage engine for disk-resident clipped R-trees
//!
//! The paper's index is a disk structure: 4 KiB pages holding one node
//! each (Figure 4a) plus a small auxiliary clip-point table that — like
//! the directory levels — stays memory-resident (Figure 4b, §V "internal
//! nodes and clip points can generally be memory-resident").
//!
//! This crate provides:
//!
//! * [`codec`] — byte-exact node (de)serialization in the Figure 4a
//!   layout, and the sizes of the Figure 4b clip-table records;
//! * [`pagestore`] — page-granular storage backends (a real file and an
//!   in-memory store) with read/write counters;
//! * [`buffer`] — an LRU buffer pool with hit/miss accounting;
//! * [`disk_tree`] — a disk-resident (clipped) R-tree executing range
//!   queries through the pool: the Figure 15 scalability substrate;
//! * [`layout`] — the Figure 13 storage-breakdown accounting;
//! * [`wal`] — a checksummed, length-prefixed write-ahead log with a
//!   torn-tail-truncating recovery scanner (the serve layer logs one
//!   record per coalesced update batch);
//! * [`fault`] — crash/corruption test doubles ([`FaultyLog`],
//!   [`FaultyPageStore`]) so recovery's failure paths stay exercised.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod codec;
pub mod disk_tree;
pub mod fault;
pub mod layout;
pub mod pagestore;
pub mod wal;

pub use buffer::BufferPool;
pub use disk_tree::DiskRTree;
pub use fault::{FaultyLog, FaultyPageStore};
pub use layout::{storage_breakdown, StorageBreakdown};
pub use pagestore::{FilePageStore, MemPageStore, PageStore};
pub use wal::{crc32, read_wal, recover_wal, WalRecovery, WalWriter, MAX_WAL_RECORD, WAL_MAGIC};
