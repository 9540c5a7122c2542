//! Sorted String Table (SST) files.
//!
//! An SST is an immutable, sorted file of internal-key → value entries,
//! produced by flushing a memtable or by compaction. Layout:
//!
//! ```text
//! [data block 0][crc32]
//! [data block 1][crc32]
//! ...
//! [bloom filter block][crc32]
//! [index block][crc32]          // last key of each data block -> block handle
//! [footer]                      // fixed 80 bytes, see Footer
//! ```
//!
//! The paper's cost analysis (Section 2.1) assumes index blocks and bloom
//! filters are held in memory, so a point lookup pays at most one data block
//! per sorted run. [`Table`] does exactly that: the index block is decoded
//! once at open into a flat slice of fixed-width entries (17-byte last key +
//! 16-byte handle, 40 bytes with padding) and held for the table's lifetime,
//! next to the bloom filter. A 2 MiB table of 4 KiB blocks holds ~500
//! entries, ~20 KiB. Probes and iterators share it; none re-decode it.

use std::sync::Arc;

use crate::block::{Block, BlockBuilder};
use crate::bloom::{BloomFilter, BloomFilterBuilder};
use crate::cache::{BlockCache, CachedBlock, ScopedCache};
use crate::checksum::crc32;
use crate::coding::{put_u32, put_u64, Decoder};
use crate::error::{Error, Result};
use crate::iterator::KvIterator;
use crate::storage::{RandomAccessFile, StorageRef, WritableFile};
use crate::types::{InternalKey, SeqNo, UserKey, ValueKind, INTERNAL_KEY_LEN};

/// Magic number identifying an SST footer.
const SST_MAGIC: u64 = 0x4C41_5345_5253_5354; // "LASERSST"

/// Fixed footer size in bytes.
const FOOTER_SIZE: usize = 80;

/// Location of a block within an SST file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    /// Byte offset of the block within the file.
    pub offset: u64,
    /// Length of the block in bytes (excluding the trailing checksum).
    pub size: u64,
}

impl BlockHandle {
    fn encode_to(&self, dst: &mut Vec<u8>) {
        put_u64(dst, self.offset);
        put_u64(dst, self.size);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self> {
        Ok(BlockHandle {
            offset: d.u64()?,
            size: d.u64()?,
        })
    }
}

/// Options controlling SST construction.
#[derive(Debug, Clone)]
pub struct TableOptions {
    /// Target uncompressed size of a data block in bytes (RocksDB default: 4 KiB).
    pub block_size: usize,
    /// Bloom filter bits per key (10 ≈ 1% false-positive rate).
    pub bloom_bits_per_key: usize,
    /// Restart interval for key prefix compression inside data blocks.
    pub restart_interval: usize,
    /// Whether to delta/prefix-encode keys within data blocks.
    pub prefix_compression: bool,
}

impl Default for TableOptions {
    fn default() -> Self {
        TableOptions {
            block_size: 4096,
            bloom_bits_per_key: 10,
            restart_interval: 16,
            prefix_compression: true,
        }
    }
}

/// Summary metadata about a finished SST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableProperties {
    /// Number of entries in the table.
    pub num_entries: u64,
    /// Smallest user key present.
    pub min_user_key: UserKey,
    /// Largest user key present.
    pub max_user_key: UserKey,
    /// Total file size in bytes.
    pub file_size: u64,
    /// Number of data blocks.
    pub num_data_blocks: u64,
    /// Smallest sequence number present (proxy for the age of the newest data).
    pub min_seq: u64,
    /// Largest sequence number present.
    pub max_seq: u64,
}

#[derive(Debug, Clone)]
struct Footer {
    bloom_handle: BlockHandle,
    index_handle: BlockHandle,
    num_entries: u64,
    min_user_key: UserKey,
    max_user_key: UserKey,
    min_seq: u64,
    max_seq: u64,
}

impl Footer {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FOOTER_SIZE);
        self.bloom_handle.encode_to(&mut out);
        self.index_handle.encode_to(&mut out);
        put_u64(&mut out, self.num_entries);
        put_u64(&mut out, self.min_user_key);
        put_u64(&mut out, self.max_user_key);
        put_u64(&mut out, self.min_seq);
        put_u64(&mut out, self.max_seq);
        put_u64(&mut out, SST_MAGIC);
        debug_assert_eq!(out.len(), FOOTER_SIZE);
        out
    }

    fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() != FOOTER_SIZE {
            return Err(Error::corruption("sst footer has wrong size"));
        }
        let mut d = Decoder::new(buf);
        let bloom_handle = BlockHandle::decode(&mut d)?;
        let index_handle = BlockHandle::decode(&mut d)?;
        let num_entries = d.u64()?;
        let min_user_key = d.u64()?;
        let max_user_key = d.u64()?;
        let min_seq = d.u64()?;
        let max_seq = d.u64()?;
        let magic = d.u64()?;
        if magic != SST_MAGIC {
            return Err(Error::corruption("bad sst magic number"));
        }
        Ok(Footer {
            bloom_handle,
            index_handle,
            num_entries,
            min_user_key,
            max_user_key,
            min_seq,
            max_seq,
        })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Builds an SST by appending internal-key/value pairs in sorted order.
pub struct TableBuilder {
    file: Box<dyn WritableFile>,
    options: TableOptions,
    data_block: BlockBuilder,
    index_block: BlockBuilder,
    bloom: BloomFilterBuilder,
    offset: u64,
    num_entries: u64,
    num_data_blocks: u64,
    min_user_key: Option<UserKey>,
    max_user_key: Option<UserKey>,
    min_seq: u64,
    max_seq: u64,
    last_key: Vec<u8>,
}

impl TableBuilder {
    /// Creates a builder writing to `file`.
    pub fn new(file: Box<dyn WritableFile>, options: TableOptions) -> Self {
        let mut data_block = BlockBuilder::with_restart_interval(options.restart_interval);
        data_block.set_prefix_compression(options.prefix_compression);
        TableBuilder {
            bloom: BloomFilterBuilder::new(options.bloom_bits_per_key),
            data_block,
            index_block: BlockBuilder::new(),
            file,
            options,
            offset: 0,
            num_entries: 0,
            num_data_blocks: 0,
            min_user_key: None,
            max_user_key: None,
            min_seq: u64::MAX,
            max_seq: 0,
            last_key: Vec::new(),
        }
    }

    /// Adds an entry. `key` is an encoded [`InternalKey`]; entries must be
    /// added in strictly increasing encoded-key order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if !self.last_key.is_empty() && key <= self.last_key.as_slice() {
            return Err(Error::invalid(
                "sst entries must be added in increasing key order",
            ));
        }
        let decoded = InternalKey::decode(key)?;
        let user_key = decoded.user_key;
        if self.min_user_key.is_none() {
            self.min_user_key = Some(user_key);
        }
        self.max_user_key = Some(user_key);
        self.min_seq = self.min_seq.min(decoded.seq);
        self.max_seq = self.max_seq.max(decoded.seq);
        self.bloom.add(&user_key.to_be_bytes());
        self.data_block.add(key, value)?;
        self.num_entries += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        if self.data_block.size_estimate() >= self.options.block_size {
            self.flush_data_block()?;
        }
        Ok(())
    }

    /// Number of entries added so far.
    pub fn num_entries(&self) -> u64 {
        self.num_entries
    }

    /// Approximate current file size in bytes.
    pub fn estimated_size(&self) -> u64 {
        self.offset + self.data_block.size_estimate() as u64
    }

    fn flush_data_block(&mut self) -> Result<()> {
        if self.data_block.is_empty() {
            return Ok(());
        }
        let last_key = self.data_block.last_key().to_vec();
        let contents = self.data_block.finish();
        let handle = self.write_block(&contents)?;
        let mut handle_enc = Vec::with_capacity(16);
        handle.encode_to(&mut handle_enc);
        self.index_block.add(&last_key, &handle_enc)?;
        self.num_data_blocks += 1;
        Ok(())
    }

    fn write_block(&mut self, contents: &[u8]) -> Result<BlockHandle> {
        let handle = BlockHandle {
            offset: self.offset,
            size: contents.len() as u64,
        };
        let mut trailer = Vec::with_capacity(4);
        put_u32(&mut trailer, crc32(contents));
        self.file.append(contents)?;
        self.file.append(&trailer)?;
        self.offset += contents.len() as u64 + 4;
        Ok(handle)
    }

    /// Finishes the table, returning its properties. The file is synced.
    pub fn finish(mut self) -> Result<TableProperties> {
        if self.num_entries == 0 {
            return Err(Error::invalid("cannot finish an empty sst"));
        }
        self.flush_data_block()?;
        let bloom_contents = self.bloom.finish();
        let bloom_handle = self.write_block(&bloom_contents)?;
        let index_contents = self.index_block.finish();
        let index_handle = self.write_block(&index_contents)?;
        let footer = Footer {
            bloom_handle,
            index_handle,
            num_entries: self.num_entries,
            min_user_key: self.min_user_key.unwrap_or(0),
            max_user_key: self.max_user_key.unwrap_or(0),
            min_seq: self.min_seq,
            max_seq: self.max_seq,
        };
        self.file.append(&footer.encode())?;
        self.offset += FOOTER_SIZE as u64;
        self.file.sync()?;
        Ok(TableProperties {
            num_entries: self.num_entries,
            min_user_key: footer.min_user_key,
            max_user_key: footer.max_user_key,
            file_size: self.offset,
            num_data_blocks: self.num_data_blocks,
            min_seq: footer.min_seq,
            max_seq: footer.max_seq,
        })
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One decoded index entry: the last internal key of a data block and where
/// that block lives. Fixed width, so the whole index is one flat slice.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    last_key: [u8; INTERNAL_KEY_LEN],
    handle: BlockHandle,
}

/// Decodes an index block into its flat, fixed-width form. Every key must be
/// an encoded internal key and every value exactly one block handle; anything
/// else is corruption, since a skipped entry would hide that block's keys.
fn decode_index(block: &Block) -> Result<Box<[IndexEntry]>> {
    let mut out = Vec::new();
    let mut it = block.iter();
    it.seek_to_first()?;
    while it.valid() {
        let last_key = it
            .key()
            .try_into()
            .map_err(|_| Error::corruption("sst index key is not an internal key"))?;
        let mut d = Decoder::new(it.value());
        let handle = BlockHandle::decode(&mut d)
            .ok()
            .filter(|_| d.is_empty())
            .ok_or_else(|| Error::corruption("sst index entry holds a malformed block handle"))?;
        out.push(IndexEntry { last_key, handle });
        it.next_entry()?;
    }
    Ok(out.into_boxed_slice())
}

/// An open, immutable SST.
pub struct Table {
    file: Box<dyn RandomAccessFile>,
    /// The index, decoded once at open and shared by every probe and
    /// iterator of this table.
    index: Box<[IndexEntry]>,
    bloom: BloomFilter,
    props: TableProperties,
    name: String,
    /// Shared block cache plus this table's process-unique cache id. Ids are
    /// handed out per *open*, never reused, so cached blocks of a replaced or
    /// deleted SST can never leak into reads of a newer file.
    cache: Option<(Arc<BlockCache>, u64)>,
}

impl Drop for Table {
    fn drop(&mut self) {
        if let Some((cache, id)) = &self.cache {
            cache.evict_table(*id);
        }
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("props", &self.props)
            .finish()
    }
}

impl Table {
    /// Table metadata.
    pub fn properties(&self) -> &TableProperties {
        &self.props
    }

    /// The file name this table was opened from.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns false if the bloom filter proves `user_key` is absent.
    pub fn may_contain(&self, user_key: UserKey) -> bool {
        if user_key < self.props.min_user_key || user_key > self.props.max_user_key {
            return false;
        }
        self.bloom.may_contain(&user_key.to_be_bytes())
    }

    /// Returns true if this table's user-key range overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: UserKey, hi: UserKey) -> bool {
        self.props.min_user_key <= hi && lo <= self.props.max_user_key
    }

    /// Returns true if some entry's user key lies outside `[lo, hi]`. Unlike
    /// the (possibly clamped) manifest metadata, this consults the footer's
    /// *content* bounds — a table adopted into a range-restricted shard
    /// reports true here until a trim compaction rewrites it.
    pub fn spans_outside(&self, lo: UserKey, hi: UserKey) -> bool {
        self.props.min_user_key < lo || self.props.max_user_key > hi
    }

    /// Index of the first data block whose last key is `>= target` (the only
    /// block that can hold the first entry `>= target`); `index.len()` if none.
    fn find_block(&self, target: &[u8]) -> usize {
        self.index
            .partition_point(|e| e.last_key.as_slice() < target)
    }

    /// Returns the decoded entries of data block `idx`, consulting the shared
    /// block cache first when one is attached.
    fn block_entries(&self, idx: usize) -> Result<CachedBlock> {
        let read = || -> Result<CachedBlock> {
            let data = read_verified_block(self.file.as_ref(), self.index[idx].handle)?;
            Ok(Arc::new(Block::decode(data)?.entries()?))
        };
        let Some((cache, id)) = &self.cache else {
            return read();
        };
        if let Some(entries) = cache.get(*id, idx as u32) {
            return Ok(entries);
        }
        let entries = read()?;
        cache.insert(*id, idx as u32, Arc::clone(&entries));
        Ok(entries)
    }

    /// Direct point probe: passes the versions of `user_key` visible at
    /// `seq`, newest first, to `visit` until it returns false. Seeks straight
    /// to `(user_key, seq)`, so invisible newer versions are skipped by the
    /// binary searches: one over the decoded index, one inside the block.
    /// A second block is loaded only when the visited versions run past a
    /// block boundary. The caller does the bloom check.
    fn visit_versions(
        &self,
        user_key: UserKey,
        seq: SeqNo,
        mut visit: impl FnMut(InternalKey, &[u8]) -> bool,
    ) -> Result<()> {
        // Kind tag 0 sorts first among equal (user key, seq) pairs.
        let target = InternalKey::new(user_key, seq, ValueKind::Full).encode();
        let mut idx = self.find_block(&target);
        if idx >= self.index.len() {
            return Ok(());
        }
        let mut block = self.block_entries(idx)?;
        let mut pos = block.partition_point(|(k, _)| k.as_slice() < target.as_slice());
        loop {
            for (key, value) in &block[pos..] {
                let ik = InternalKey::decode(key)?;
                if ik.user_key != user_key || !visit(ik, value) {
                    return Ok(());
                }
            }
            idx += 1;
            if idx >= self.index.len() {
                return Ok(());
            }
            block = self.block_entries(idx)?;
            pos = 0;
        }
    }

    /// Point lookup: newest version of `user_key` visible at `seq`. Costs a
    /// bloom check, a binary search of the decoded index, one data block
    /// (normally a cache hit) and a binary search inside it.
    pub fn get(&self, user_key: UserKey, seq: SeqNo) -> Result<Option<(InternalKey, Vec<u8>)>> {
        let mut found = None;
        if self.may_contain(user_key) {
            self.visit_versions(user_key, seq, |ik, value| {
                found = Some((ik, value.to_vec()));
                false
            })?;
        }
        Ok(found)
    }

    /// Every version of `user_key` visible at `seq`, newest first, stopping
    /// at (and including) the first `Full` or `Tombstone` record — the table
    /// counterpart of [`MemTable::get_versions`](crate::memtable::MemTable::get_versions),
    /// for readers that overlay `Partial` records. Same probe as [`Self::get`].
    pub fn get_versions(
        &self,
        user_key: UserKey,
        seq: SeqNo,
    ) -> Result<Vec<(InternalKey, Vec<u8>)>> {
        let mut out = Vec::new();
        if self.may_contain(user_key) {
            self.visit_versions(user_key, seq, |ik, value| {
                out.push((ik, value.to_vec()));
                ik.kind == ValueKind::Partial
            })?;
        }
        Ok(out)
    }
}

/// Shared handle to an open table. Derefs to [`Table`] for metadata and
/// point lookups; iterators hold a clone of the `Arc`.
#[derive(Clone, Debug)]
pub struct TableHandle(pub Arc<Table>);

impl std::ops::Deref for TableHandle {
    type Target = Table;

    fn deref(&self) -> &Table {
        &self.0
    }
}

impl TableHandle {
    /// Opens an SST by name from a storage backend (no block cache).
    pub fn open(storage: &StorageRef, name: &str) -> Result<TableHandle> {
        Self::open_with_cache(storage, name, None)
    }

    /// Opens an SST, serving data-block reads through `cache` when given.
    /// The scope of the handle decides which accounting scope of the shared
    /// cache this table's blocks charge (see [`ScopedCache`]).
    pub fn open_with_cache(
        storage: &StorageRef,
        name: &str,
        cache: Option<ScopedCache>,
    ) -> Result<TableHandle> {
        let file = storage.open(name)?;
        let file_size = file.len();
        if file_size < FOOTER_SIZE as u64 {
            return Err(Error::corruption(format!("sst {name} smaller than footer")));
        }
        let footer_buf = file.read_at(file_size - FOOTER_SIZE as u64, FOOTER_SIZE)?;
        let footer = Footer::decode(&footer_buf)?;
        let index_data = read_verified_block(file.as_ref(), footer.index_handle)?;
        let index = decode_index(&Block::decode(index_data)?)?;
        let bloom_data = read_verified_block(file.as_ref(), footer.bloom_handle)?;
        let bloom = BloomFilter::decode(&bloom_data)?;
        let cache = cache.map(|c| {
            let id = c.register_table();
            (Arc::clone(c.cache()), id)
        });
        Ok(TableHandle(Arc::new(Table {
            file,
            bloom,
            cache,
            props: TableProperties {
                num_entries: footer.num_entries,
                min_user_key: footer.min_user_key,
                max_user_key: footer.max_user_key,
                file_size,
                num_data_blocks: index.len() as u64,
                min_seq: footer.min_seq,
                max_seq: footer.max_seq,
            },
            index,
            name: name.to_string(),
        })))
    }

    /// Creates an iterator over the whole table.
    pub fn iter(&self) -> TableIterator {
        TableIterator::new(Arc::clone(&self.0))
    }
}

fn read_verified_block(file: &dyn RandomAccessFile, handle: BlockHandle) -> Result<Vec<u8>> {
    let buf = file.read_at(handle.offset, handle.size as usize + 4)?;
    if buf.len() != handle.size as usize + 4 {
        return Err(Error::corruption("short read for block"));
    }
    let (contents, trailer) = buf.split_at(handle.size as usize);
    let stored = crate::coding::get_u32(trailer)?;
    let actual = crc32(contents);
    if stored != actual {
        return Err(Error::corruption(format!(
            "block checksum mismatch at offset {}: stored {stored:#x} computed {actual:#x}",
            handle.offset
        )));
    }
    Ok(contents.to_vec())
}

// ---------------------------------------------------------------------------
// Iterator
// ---------------------------------------------------------------------------

/// Iterates all entries of a table in key order, loading one data block at a
/// time through the table's shared, already-decoded index. Entries of the
/// current block are decoded eagerly so advancing is O(1) and seeking within
/// a block is a binary search.
pub struct TableIterator {
    table: Arc<Table>,
    current_block_idx: usize,
    /// Decoded entries of the current block (shared with the block cache).
    current_entries: CachedBlock,
    /// Position of the current entry within `current_entries`.
    entry_idx: usize,
    valid: bool,
}

impl TableIterator {
    /// Creates an iterator positioned before the first entry.
    pub fn new(table: Arc<Table>) -> Self {
        TableIterator {
            table,
            current_block_idx: 0,
            current_entries: Arc::new(Vec::new()),
            entry_idx: 0,
            valid: false,
        }
    }

    fn load_block(&mut self, idx: usize) -> Result<bool> {
        if idx >= self.table.index.len() {
            self.current_entries = Arc::new(Vec::new());
            self.valid = false;
            return Ok(false);
        }
        self.current_entries = self.table.block_entries(idx)?;
        self.current_block_idx = idx;
        self.entry_idx = 0;
        Ok(true)
    }
}

impl KvIterator for TableIterator {
    fn seek_to_first(&mut self) -> Result<()> {
        self.valid = false;
        if self.load_block(0)? && !self.current_entries.is_empty() {
            self.entry_idx = 0;
            self.valid = true;
        }
        Ok(())
    }

    fn seek(&mut self, target: &[u8]) -> Result<()> {
        self.valid = false;
        if !self.load_block(self.table.find_block(target))? {
            return Ok(());
        }
        // Binary search within the decoded block for the first key >= target.
        let pos = self
            .current_entries
            .partition_point(|(k, _)| k.as_slice() < target);
        if pos < self.current_entries.len() {
            self.entry_idx = pos;
            self.valid = true;
        } else {
            // Target is past the end of this block; move to the next block.
            let next = self.current_block_idx + 1;
            if self.load_block(next)? && !self.current_entries.is_empty() {
                self.entry_idx = 0;
                self.valid = true;
            }
        }
        Ok(())
    }

    fn next(&mut self) -> Result<()> {
        if !self.valid {
            return Ok(());
        }
        if self.entry_idx + 1 < self.current_entries.len() {
            self.entry_idx += 1;
            return Ok(());
        }
        let next = self.current_block_idx + 1;
        if self.load_block(next)? && !self.current_entries.is_empty() {
            self.entry_idx = 0;
        } else {
            self.valid = false;
        }
        Ok(())
    }

    fn valid(&self) -> bool {
        self.valid
    }

    fn key(&self) -> &[u8] {
        &self.current_entries[self.entry_idx].0
    }

    fn value(&self) -> &[u8] {
        &self.current_entries[self.entry_idx].1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
    use crate::types::MAX_SEQNO;

    fn make_table(entries: &[(u64, u64, ValueKind, &[u8])]) -> (StorageRef, TableHandle) {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("test.sst").unwrap();
        let mut builder = TableBuilder::new(file, TableOptions::default());
        for &(key, seq, kind, value) in entries {
            let ik = InternalKey::new(key, seq, kind);
            builder.add(&ik.encode(), value).unwrap();
        }
        builder.finish().unwrap();
        let handle = TableHandle::open(&storage, "test.sst").unwrap();
        (storage, handle)
    }

    #[test]
    fn build_and_read_small_table() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = vec![
            (1, 10, ValueKind::Full, b"one"),
            (2, 11, ValueKind::Full, b"two"),
            (3, 12, ValueKind::Full, b"three"),
        ];
        let (_s, table) = make_table(&entries);
        let props = table.properties().clone();
        assert_eq!(props.num_entries, 3);
        assert_eq!(props.min_user_key, 1);
        assert_eq!(props.max_user_key, 3);

        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut seen = Vec::new();
        while it.valid() {
            let ik = InternalKey::decode(it.key()).unwrap();
            seen.push((ik.user_key, it.value().to_vec()));
            it.next().unwrap();
        }
        assert_eq!(
            seen,
            vec![
                (1, b"one".to_vec()),
                (2, b"two".to_vec()),
                (3, b"three".to_vec())
            ]
        );
    }

    #[test]
    fn multi_block_table_roundtrip() {
        let value = vec![7u8; 100];
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = (0..2000u64)
            .map(|i| (i, 1, ValueKind::Full, value.as_slice()))
            .collect();
        let (_s, table) = make_table(&entries);
        assert!(
            table.properties().num_data_blocks > 10,
            "expected many data blocks"
        );
        let mut it = table.iter();
        it.seek_to_first().unwrap();
        let mut count = 0u64;
        while it.valid() {
            let ik = InternalKey::decode(it.key()).unwrap();
            assert_eq!(ik.user_key, count);
            count += 1;
            it.next().unwrap();
        }
        assert_eq!(count, 2000);
    }

    #[test]
    fn seek_lands_on_correct_entry() {
        let value = vec![1u8; 64];
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = (0..1000u64)
            .map(|i| (i * 3, 1, ValueKind::Full, value.as_slice()))
            .collect();
        let (_s, table) = make_table(&entries);
        let mut it = table.iter();
        // Exact hit.
        it.seek(&InternalKey::seek_to(300).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 300);
        // Between keys: next larger.
        it.seek(&InternalKey::seek_to(301).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 303);
        // Past the end.
        it.seek(&InternalKey::seek_to(10_000).encode()).unwrap();
        assert!(!it.valid());
        // Before the beginning.
        it.seek(&InternalKey::seek_to(0).encode()).unwrap();
        assert!(it.valid());
        assert_eq!(InternalKey::decode(it.key()).unwrap().user_key, 0);
    }

    #[test]
    fn get_returns_newest_visible_version() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = vec![
            (5, 30, ValueKind::Full, b"v3"),
            (5, 20, ValueKind::Full, b"v2"),
            (5, 10, ValueKind::Full, b"v1"),
            (7, 15, ValueKind::Tombstone, b""),
        ];
        let (_s, table) = make_table(&entries);
        // Latest.
        let (ik, v) = table.get(5, u64::MAX >> 8).unwrap().unwrap();
        assert_eq!((ik.seq, v.as_slice()), (30, &b"v3"[..]));
        // Snapshot in the past.
        let (ik, v) = table.get(5, 25).unwrap().unwrap();
        assert_eq!((ik.seq, v.as_slice()), (20, &b"v2"[..]));
        let (ik, _) = table.get(5, 10).unwrap().unwrap();
        assert_eq!(ik.seq, 10);
        // Before any version existed.
        assert!(table.get(5, 5).unwrap().is_none());
        // Tombstones are surfaced, not hidden.
        let (ik, _) = table.get(7, u64::MAX >> 8).unwrap().unwrap();
        assert_eq!(ik.kind, ValueKind::Tombstone);
        // Missing key.
        assert!(table.get(100, u64::MAX >> 8).unwrap().is_none());
    }

    #[test]
    fn bloom_filter_skips_absent_keys() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = (0..100u64)
            .map(|i| (i * 2, 1, ValueKind::Full, &b"v"[..]))
            .collect();
        let (_s, table) = make_table(&entries);
        assert!(table.may_contain(50));
        assert!(
            !table.may_contain(1_000_000),
            "out of range must be excluded"
        );
        // Odd keys inside the range: mostly excluded by the bloom filter.
        let mut excluded = 0;
        for i in 0..100u64 {
            if !table.may_contain(i * 2 + 1) {
                excluded += 1;
            }
        }
        assert!(
            excluded > 90,
            "bloom filter should exclude most absent keys, excluded {excluded}"
        );
    }

    #[test]
    fn unsorted_input_rejected() {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("bad.sst").unwrap();
        let mut builder = TableBuilder::new(file, TableOptions::default());
        builder
            .add(&InternalKey::new(5, 1, ValueKind::Full).encode(), b"x")
            .unwrap();
        assert!(builder
            .add(&InternalKey::new(4, 1, ValueKind::Full).encode(), b"y")
            .is_err());
    }

    #[test]
    fn empty_table_rejected() {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("empty.sst").unwrap();
        let builder = TableBuilder::new(file, TableOptions::default());
        assert!(builder.finish().is_err());
    }

    #[test]
    fn corruption_detected() {
        let storage: StorageRef = MemStorage::new_ref();
        {
            let file = storage.create("c.sst").unwrap();
            let mut builder = TableBuilder::new(file, TableOptions::default());
            for i in 0..100u64 {
                builder
                    .add(
                        &InternalKey::new(i, 1, ValueKind::Full).encode(),
                        &[0u8; 32],
                    )
                    .unwrap();
            }
            builder.finish().unwrap();
        }
        // Flip a byte in the middle of the file (inside a data block) and
        // rewrite the file.
        let original = storage.open("c.sst").unwrap().read_all().unwrap();
        let mut corrupted = original.clone();
        corrupted[100] ^= 0xFF;
        let mut f = storage.create("c.sst").unwrap();
        f.append(&corrupted).unwrap();
        let table = TableHandle::open(&storage, "c.sst").unwrap();
        let mut it = table.iter();
        let err = it.seek_to_first();
        assert!(err.is_err(), "corrupted data block must fail checksum");
    }

    /// Builds key 5 with 200 versions (seq 1 is `Full`, newer ones
    /// `Partial`), each carrying a 100-byte value, between neighbours 4 and
    /// 6, so key 5's versions span several 4 KiB data blocks.
    fn multi_block_key_table() -> (StorageRef, TableHandle) {
        let value = [9u8; 100];
        let mut entries: Vec<(u64, u64, ValueKind, &[u8])> =
            vec![(4, 500, ValueKind::Full, &value)];
        for seq in (1..=200).rev() {
            let kind = if seq == 1 {
                ValueKind::Full
            } else {
                ValueKind::Partial
            };
            entries.push((5, seq, kind, &value));
        }
        entries.push((6, 500, ValueKind::Full, &value));
        make_table(&entries)
    }

    /// Sequence numbers of key 5 that end a data block: the visible version
    /// at `seq - 1` is the first entry of the *next* block.
    fn key5_block_ends(table: &TableHandle) -> Vec<u64> {
        let ends: Vec<u64> = table
            .index
            .iter()
            .map(|e| InternalKey::decode(&e.last_key).unwrap())
            .filter(|ik| ik.user_key == 5 && ik.seq > 1)
            .map(|ik| ik.seq)
            .collect();
        assert!(ends.len() >= 2, "key 5 must span several blocks");
        ends
    }

    #[test]
    fn get_finds_visible_version_in_the_next_block() {
        let (_s, table) = multi_block_key_table();
        for end in key5_block_ends(&table) {
            // At `end` the visible version is the last entry of its block...
            let (ik, _) = table.get(5, end).unwrap().unwrap();
            assert_eq!(ik.seq, end);
            // ...and at the snapshot just before, it opens the next block.
            let (ik, _) = table.get(5, end - 1).unwrap().unwrap();
            assert_eq!(ik.seq, end - 1);
        }
        for snapshot in 0..=201u64 {
            let got = table.get(5, snapshot).unwrap().map(|(ik, _)| ik.seq);
            assert_eq!(got, (snapshot > 0).then_some(snapshot.min(200)));
        }
        assert_eq!(table.get(4, 499).unwrap(), None);
        assert_eq!(table.get(6, MAX_SEQNO).unwrap().unwrap().0.seq, 500);
    }

    #[test]
    fn get_versions_crosses_block_boundaries() {
        let (_s, table) = multi_block_key_table();
        for end in key5_block_ends(&table) {
            for snapshot in [end, end - 1] {
                let seqs: Vec<u64> = table
                    .get_versions(5, snapshot)
                    .unwrap()
                    .iter()
                    .map(|(ik, _)| ik.seq)
                    .collect();
                // Every partial down to (and including) the full row at seq 1.
                assert_eq!(seqs, (1..=snapshot).rev().collect::<Vec<_>>());
            }
        }
        let versions = table.get_versions(6, MAX_SEQNO).unwrap();
        assert_eq!(versions.len(), 1);
        assert!(table.get_versions(5, 0).unwrap().is_empty());
        assert!(table.get_versions(7, MAX_SEQNO).unwrap().is_empty());
    }

    #[test]
    fn malformed_index_handle_fails_open() {
        let storage: StorageRef = MemStorage::new_ref();
        let file = storage.create("t.sst").unwrap();
        let mut builder = TableBuilder::new(file, TableOptions::default());
        for i in 0..100u64 {
            builder
                .add(
                    &InternalKey::new(i, 1, ValueKind::Full).encode(),
                    &[0u8; 32],
                )
                .unwrap();
        }
        builder.finish().unwrap();
        let original = storage.open("t.sst").unwrap().read_all().unwrap();
        let footer = Footer::decode(&original[original.len() - FOOTER_SIZE..]).unwrap();
        let index_start = footer.index_handle.offset as usize;
        let index_end = index_start + footer.index_handle.size as usize;
        let entries = Block::decode(original[index_start..index_end].to_vec())
            .unwrap()
            .entries()
            .unwrap();
        assert!(entries.len() > 1);
        // Rewrites the index, cutting the last entry's handle to `handle_len`
        // bytes, under a freshly computed (valid) checksum.
        let rewrite = |handle_len: usize| {
            let mut index = BlockBuilder::new();
            for (i, (key, handle)) in entries.iter().enumerate() {
                let len = if i + 1 == entries.len() {
                    handle_len
                } else {
                    handle.len()
                };
                index.add(key, &handle[..len]).unwrap();
            }
            let contents = index.finish();
            let mut file = original[..index_start].to_vec();
            file.extend_from_slice(&contents);
            put_u32(&mut file, crc32(&contents));
            let footer = Footer {
                index_handle: BlockHandle {
                    offset: index_start as u64,
                    size: contents.len() as u64,
                },
                ..footer.clone()
            };
            file.extend_from_slice(&footer.encode());
            storage.create("t.sst").unwrap().append(&file).unwrap();
            TableHandle::open(&storage, "t.sst")
        };
        // Rewritten intact, the table opens and its last block is readable.
        let table = rewrite(16).unwrap();
        assert_eq!(table.get(99, MAX_SEQNO).unwrap().unwrap().0.user_key, 99);
        drop(table);
        let err = rewrite(8).unwrap_err();
        assert!(err.is_corruption(), "expected corruption, got {err:?}");
    }

    #[test]
    fn overlap_checks() {
        let entries: Vec<(u64, u64, ValueKind, &[u8])> = vec![
            (10, 1, ValueKind::Full, b"a"),
            (20, 1, ValueKind::Full, b"b"),
        ];
        let (_s, table) = make_table(&entries);
        assert!(table.overlaps(15, 25));
        assert!(table.overlaps(0, 10));
        assert!(table.overlaps(20, 30));
        assert!(!table.overlaps(21, 30));
        assert!(!table.overlaps(0, 9));
    }
}
