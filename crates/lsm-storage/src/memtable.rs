//! The in-memory write buffer (memtable).
//!
//! Writes go into the *mutable* memtable; once it reaches its configured size
//! it becomes *immutable* and is flushed to Level-0 by a background job while
//! a fresh mutable memtable absorbs new writes — exactly the two-skiplist
//! arrangement the paper describes in Section 2.1.

use parking_lot::RwLock;
use std::sync::Arc;

use crate::error::Result;
use crate::iterator::KvIterator;
use crate::skiplist::SkipList;
use crate::types::{InternalKey, SeqNo, UserKey, ValueKind, WriteEntry};

/// A single memtable: a skiplist of encoded internal keys.
#[derive(Debug)]
pub struct MemTable {
    list: RwLock<SkipList>,
    /// Smallest sequence number inserted (used to order flushed runs).
    min_seq: RwLock<Option<SeqNo>>,
    /// Largest sequence number inserted.
    max_seq: RwLock<Option<SeqNo>>,
}

impl Default for MemTable {
    fn default() -> Self {
        Self::new()
    }
}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        MemTable {
            list: RwLock::new(SkipList::new()),
            min_seq: RwLock::new(None),
            max_seq: RwLock::new(None),
        }
    }

    /// Inserts a write tagged with sequence number `seq`.
    pub fn insert(&self, seq: SeqNo, entry: &WriteEntry) {
        let ik = InternalKey::new(entry.user_key, seq, entry.kind);
        self.list.write().insert(&ik.encode(), &entry.value);
        let mut min = self.min_seq.write();
        if min.is_none() || seq < min.unwrap() {
            *min = Some(seq);
        }
        let mut max = self.max_seq.write();
        if max.is_none() || seq > max.unwrap() {
            *max = Some(seq);
        }
    }

    /// Returns the newest version of `user_key` visible at `snapshot_seq`.
    /// The result includes tombstones so callers can stop searching older runs.
    pub fn get(&self, user_key: UserKey, snapshot_seq: SeqNo) -> Option<(InternalKey, Vec<u8>)> {
        let list = self.list.read();
        let mut iter = list.iter();
        iter.seek(&InternalKey::seek_to(user_key).encode());
        while iter.valid() {
            let ik = InternalKey::decode(iter.key()).ok()?;
            if ik.user_key != user_key {
                return None;
            }
            if ik.seq <= snapshot_seq {
                return Some((ik, iter.value().to_vec()));
            }
            iter.next_entry();
        }
        None
    }

    /// Returns *all* versions of `user_key` visible at `snapshot_seq`, newest
    /// first, stopping at (and including) the first `Full` or `Tombstone`
    /// record. Needed by LASER's partial-row reads, where several `Partial`
    /// records may have to be overlaid before a complete value is known.
    pub fn get_versions(
        &self,
        user_key: UserKey,
        snapshot_seq: SeqNo,
    ) -> Vec<(InternalKey, Vec<u8>)> {
        let list = self.list.read();
        let mut iter = list.iter();
        iter.seek(&InternalKey::seek_to(user_key).encode());
        let mut out = Vec::new();
        while iter.valid() {
            let Ok(ik) = InternalKey::decode(iter.key()) else {
                break;
            };
            if ik.user_key != user_key {
                break;
            }
            if ik.seq <= snapshot_seq {
                out.push((ik, iter.value().to_vec()));
                if ik.kind != ValueKind::Partial {
                    break;
                }
            }
            iter.next_entry();
        }
        out
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.list.read().len()
    }

    /// Returns true if empty.
    pub fn is_empty(&self) -> bool {
        self.list.read().is_empty()
    }

    /// Approximate memory footprint in bytes.
    pub fn approximate_bytes(&self) -> usize {
        self.list.read().approximate_bytes()
    }

    /// Smallest sequence number inserted, if any.
    pub fn min_seq(&self) -> Option<SeqNo> {
        *self.min_seq.read()
    }

    /// Largest sequence number inserted, if any.
    pub fn max_seq(&self) -> Option<SeqNo> {
        *self.max_seq.read()
    }

    /// Produces a sorted snapshot of the contents for flushing.
    pub fn to_sorted_vec(&self) -> Vec<(Vec<u8>, Vec<u8>)> {
        self.list.read().to_sorted_vec()
    }

    /// Creates an owning iterator over a snapshot of the entries whose user
    /// key lies in `[lo, hi]`: one skiplist seek, then a copy of just that
    /// range under the read lock, so a scan's setup cost does not grow with
    /// the rest of the memtable.
    pub fn range_iter(&self, lo: UserKey, hi: UserKey) -> MemTableIterator {
        let list = self.list.read();
        let mut it = list.iter();
        // The 8-byte user-key prefix sorts before every version of `lo`.
        it.seek(&lo.to_be_bytes());
        let mut entries = Vec::new();
        while it.valid() && InternalKey::decode_user_key(it.key()).is_ok_and(|k| k <= hi) {
            entries.push((it.key().to_vec(), it.value().to_vec()));
            it.next_entry();
        }
        MemTableIterator::new(entries)
    }
}

/// Shared handle to a memtable.
pub type MemTableRef = Arc<MemTable>;

/// A frozen (immutable) memtable awaiting flush, paired with the WAL
/// segments that hold exactly its writes. When the memtable is durably
/// flushed to an SST, the segments are retired and their files deleted —
/// this per-memtable pairing is what bounds recovery replay to the unflushed
/// tail. A freeze on the write path pairs exactly one sealed segment; a
/// recovery that adopts sealed segments in place pairs every adopted segment
/// with the single memtable rebuilt from their records.
#[derive(Debug, Clone)]
pub struct FrozenMemTable {
    /// The frozen memtable (still readable until its flush installs).
    pub memtable: MemTableRef,
    /// Ids of the WAL segments sealed for this memtable's writes.
    pub wal_segments: Vec<u64>,
}

impl FrozenMemTable {
    /// Pairs `memtable` with the single `segment` sealed when it was frozen
    /// (the ordinary write-path case).
    pub fn sealed(memtable: MemTableRef, segment: u64) -> Self {
        FrozenMemTable {
            memtable,
            wal_segments: vec![segment],
        }
    }
}

/// An owning iterator over a snapshot of a memtable's contents.
#[derive(Debug, Clone)]
pub struct MemTableIterator {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    pos: usize,
    valid: bool,
}

impl MemTableIterator {
    fn new(entries: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        MemTableIterator {
            entries,
            pos: 0,
            valid: false,
        }
    }
}

impl KvIterator for MemTableIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        self.pos = 0;
        self.valid = !self.entries.is_empty();
        Ok(())
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.pos = self.entries.partition_point(|(k, _)| k.as_slice() < target);
        self.valid = self.pos < self.entries.len();
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        if self.valid {
            self.pos += 1;
            self.valid = self.pos < self.entries.len();
        }
        Ok(())
    }

    fn valid(&self) -> bool {
        self.valid
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> &[u8] {
        &self.entries[self.pos].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MAX_SEQNO;

    #[test]
    fn insert_and_get_latest() {
        let mt = MemTable::new();
        mt.insert(1, &WriteEntry::put(10, b"v1".to_vec()));
        mt.insert(2, &WriteEntry::put(10, b"v2".to_vec()));
        mt.insert(3, &WriteEntry::put(20, b"w1".to_vec()));
        assert_eq!(mt.len(), 3);
        let (ik, v) = mt.get(10, MAX_SEQNO).unwrap();
        assert_eq!((ik.seq, v.as_slice()), (2, &b"v2"[..]));
        let (ik, v) = mt.get(10, 1).unwrap();
        assert_eq!((ik.seq, v.as_slice()), (1, &b"v1"[..]));
        assert!(mt.get(10, 0).is_none());
        assert!(mt.get(99, MAX_SEQNO).is_none());
    }

    #[test]
    fn tombstones_are_visible() {
        let mt = MemTable::new();
        mt.insert(1, &WriteEntry::put(5, b"x".to_vec()));
        mt.insert(2, &WriteEntry::delete(5));
        let (ik, _) = mt.get(5, MAX_SEQNO).unwrap();
        assert_eq!(ik.kind, ValueKind::Tombstone);
        let (ik, _) = mt.get(5, 1).unwrap();
        assert_eq!(ik.kind, ValueKind::Full);
    }

    #[test]
    fn get_versions_collects_partials_until_full() {
        let mt = MemTable::new();
        mt.insert(1, &WriteEntry::put(7, b"full".to_vec()));
        mt.insert(2, &WriteEntry::partial(7, b"p1".to_vec()));
        mt.insert(3, &WriteEntry::partial(7, b"p2".to_vec()));
        let versions = mt.get_versions(7, MAX_SEQNO);
        let kinds: Vec<_> = versions.iter().map(|(ik, _)| (ik.seq, ik.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (3, ValueKind::Partial),
                (2, ValueKind::Partial),
                (1, ValueKind::Full)
            ]
        );
        // At an earlier snapshot only the full row is visible.
        let versions = mt.get_versions(7, 1);
        assert_eq!(versions.len(), 1);
        assert_eq!(versions[0].0.kind, ValueKind::Full);
    }

    #[test]
    fn seq_bounds_tracked() {
        let mt = MemTable::new();
        assert!(mt.min_seq().is_none());
        mt.insert(5, &WriteEntry::put(1, vec![]));
        mt.insert(3, &WriteEntry::put(2, vec![]));
        mt.insert(9, &WriteEntry::put(3, vec![]));
        assert_eq!(mt.min_seq(), Some(3));
        assert_eq!(mt.max_seq(), Some(9));
    }

    #[test]
    fn iterator_yields_internal_key_order() {
        let mt = MemTable::new();
        for (seq, key) in [(1u64, 30u64), (2, 10), (3, 20), (4, 10)] {
            mt.insert(seq, &WriteEntry::put(key, seq.to_le_bytes().to_vec()));
        }
        let mut it = mt.range_iter(0, u64::MAX);
        it.seek_to_first().unwrap();
        let mut decoded = Vec::new();
        while it.valid() {
            let ik = InternalKey::decode(it.key()).unwrap();
            decoded.push((ik.user_key, ik.seq));
            it.next().unwrap();
        }
        // Key 10: seq 4 before seq 2 (newest first), then 20, then 30.
        assert_eq!(decoded, vec![(10, 4), (10, 2), (20, 3), (30, 1)]);
    }

    #[test]
    fn range_iter_copies_only_the_range() {
        let mt = MemTable::new();
        for key in 0..100u64 {
            mt.insert(key + 1, &WriteEntry::put(key, vec![]));
            mt.insert(key + 1000, &WriteEntry::put(key, vec![]));
        }
        let mut it = mt.range_iter(10, 20);
        it.seek_to_first().unwrap();
        let mut keys = Vec::new();
        while it.valid() {
            keys.push(InternalKey::decode(it.key()).unwrap().user_key);
            it.next().unwrap();
        }
        let expected: Vec<u64> = (10..=20).flat_map(|k| [k, k]).collect();
        assert_eq!(
            keys, expected,
            "both versions of each in-range key, nothing else"
        );
        assert!(mt.range_iter(200, 300).entries.is_empty());
        assert_eq!(mt.range_iter(0, u64::MAX).entries.len(), 200);
    }

    #[test]
    fn approximate_bytes_reflects_inserts() {
        let mt = MemTable::new();
        assert_eq!(mt.approximate_bytes(), 0);
        mt.insert(1, &WriteEntry::put(1, vec![0u8; 1000]));
        assert!(mt.approximate_bytes() >= 1000);
    }
}
