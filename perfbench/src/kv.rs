//! The two key-value workloads on `ShardedDb<LsmDb>`.
//!
//! * `kv_ingest_quorum` — 2 shards, each with 2 replicas acked by quorum,
//!   synced WAL, one maintenance worker. Two writers each commit batches of
//!   16 puts of 128-byte values to random keys of their own half of a
//!   200k-key space (key mod 2), so batches cross shards, and then read back
//!   one key they own.
//! * `kv_read_cached` — 2 unreplicated shards holding 200k compacted
//!   100-byte values inside a 64 MiB block cache warmed before timing. Two
//!   readers issue 95% point gets on Zipfian(0.99) keys and 5% 50-key scans.
//!
//! Each client does a fixed amount of work per second of `--seconds`, so
//! every run writes and reads the same keys whatever the host's speed.
//! One client also runs a fixed number of the operations the mix lacks,
//! with no other client beside it: range scans over 5% and 50% of the key
//! space (the `q4`/`q5` metrics) on both workloads, and batch writes on
//! `kv_read_cached`. `kv_ingest_quorum` runs its scans after its mix and
//! drain, where they span several seconds; `kv_read_cached` runs its scans
//! in shares between slices of its mix and its writes last (see
//! [`run_cached`]). Every value read is checked against the writers' model:
//! a value names the round it was written in (see
//! [`crate::util::value_for`]).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use laser_sharding::{
    AckMode, MemShardStorage, ReplicationConfig, ShardStorageProvider, ShardedDb, ShardedOptions,
    ShardedStatsSnapshot,
};
use lsm_storage::types::WriteBatch;
use lsm_storage::{CompactionStatsSnapshot, LsmDb, LsmOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::{HistogramSnapshot, Telemetry};

use crate::report::{ClassTimings, Report};
use crate::spans::Recorder;
use crate::util::{
    drive_phase, mix64, round_in, stratified, value_for, value_is, WindowOps, Windows, Zipf,
};
use crate::RunConfig;

/// Keys of `kv_ingest_quorum`.
pub const INGEST_KEYS: u64 = 200_000;
/// Batches per writer per second of `--seconds` on `kv_ingest_quorum`.
const INGEST_BATCHES_PER_SECOND: f64 = 1_000.0;
/// Operations per reader per second of `--seconds` on `kv_read_cached`.
const CACHED_OPS_PER_SECOND: f64 = 8_000.0;
/// Range scans (half over 5%, half over 50% of the keys) each run times.
const PROBE_SCANS: usize = 100;
/// Slices an untraced `kv_read_cached` mix is cut into (see [`run_cached`]).
const MIX_SLICES: usize = 10;
/// Write batches of a `kv_read_cached` run: about 1 MB, which the two 1 MiB
/// memtables absorb, so these writes time the WAL and memtable path without
/// flushes.
const PROBE_BATCHES: u64 = 600;
/// Value size of `kv_ingest_quorum`.
const INGEST_VALUE: usize = 128;
/// Keys of `kv_read_cached`.
const CACHED_KEYS: u64 = 200_000;
/// Value size of `kv_read_cached`.
const CACHED_VALUE: usize = 100;
/// Puts per client batch.
const BATCH: usize = 16;
/// Keys per short scan.
const SHORT_SCAN_KEYS: u64 = 50;
/// Entries per batch while loading in set-up.
const LOAD_BATCH: u64 = 256;
/// Zipfian skew of `kv_read_cached` keys.
const ZIPF_THETA: f64 = 0.99;

/// Engine options shared by both workloads: MiB-range memtables and SSTs.
fn engine_options(sync_wal: bool) -> LsmOptions {
    let mut o = LsmOptions::small_for_tests();
    o.memtable_size_bytes = 1 << 20;
    o.level0_size_bytes = 4 << 20;
    o.sst_target_size_bytes = 2 << 20;
    o.size_ratio = 4;
    o.num_levels = 5;
    o.sync_wal = sync_wal;
    o.sync_wal_interval_ms = 0;
    o.auto_compact = true;
    o
}

/// An opened workload database with what the benchmark observes it by.
struct Kv {
    db: ShardedDb<LsmDb>,
    provider: Arc<MemShardStorage>,
    hub: Arc<Telemetry>,
    keys: u64,
    value_len: usize,
}

impl Kv {
    /// Loads `keys` keys with round-0 values, in key order.
    fn load(&self) -> lsm_storage::Result<()> {
        for start in (0..self.keys).step_by(LOAD_BATCH as usize) {
            let mut batch = WriteBatch::new();
            for key in start..(start + LOAD_BATCH).min(self.keys) {
                batch.put(key, value_for(key, 0, self.value_len));
            }
            self.db.write(&batch)?;
        }
        Ok(())
    }

    /// Bytes written to every storage slot: leaders, and replicas when the
    /// shards are replicated.
    fn bytes_written(&self) -> u64 {
        let status = self.db.replication_status();
        if status.is_empty() {
            return self.db.stats().io.bytes_written;
        }
        status
            .iter()
            .flat_map(|s| std::iter::once(s.leader_slot).chain(s.replicas.iter().map(|r| r.slot)))
            .filter_map(|slot| self.provider.shard(slot as usize).ok())
            .map(|storage| storage.io_stats().snapshot().bytes_written)
            .sum()
    }

    /// Stored bytes (SSTs plus memtables) over live user bytes.
    fn space_amp(&self) -> f64 {
        let stored: u64 = self
            .db
            .shards()
            .iter()
            .map(|s| s.total_sst_bytes() + s.buffered_bytes())
            .sum();
        stored as f64 / (self.keys * (8 + self.value_len as u64)) as f64
    }

    /// Mean structural read amplification over the shards.
    fn read_amp(&self) -> f64 {
        let n = self.db.num_shards();
        (0..n)
            .filter_map(|i| self.db.shard_amplification(i))
            .map(|(_, read, _)| read)
            .sum::<f64>()
            / n.max(1) as f64
    }
}

fn open(
    keys: u64,
    value_len: usize,
    sync_wal: bool,
    options: ShardedOptions,
) -> lsm_storage::Result<Kv> {
    let provider = MemShardStorage::new_ref();
    let db = ShardedDb::open(provider.clone(), engine_options(sync_wal), options)?;
    let hub = Telemetry::new();
    db.attach_telemetry(&hub);
    Ok(Kv {
        db,
        provider,
        hub,
        keys,
        value_len,
    })
}

fn sharded_options(keys: u64) -> ShardedOptions {
    ShardedOptions {
        num_shards: 2,
        boundaries: Some(vec![keys / 2]),
        fanout_threads: 2,
        maintenance_workers: 1,
        ..Default::default()
    }
}

/// Set-up of `kv_ingest_quorum`: open, load the key space, let queued
/// maintenance finish.
fn setup_ingest() -> lsm_storage::Result<Kv> {
    let mut replication = ReplicationConfig::new(2);
    replication.ack_mode = AckMode::Quorum;
    let options = ShardedOptions {
        cache_bytes: 8 << 20,
        ..sharded_options(INGEST_KEYS)
    }
    .replication(replication);
    let kv = open(INGEST_KEYS, INGEST_VALUE, true, options)?;
    kv.load()?;
    kv.db.wait_maintenance_idle();
    Ok(kv)
}

/// Latest acked round of every key; each key has a single writer.
struct Rounds(Vec<AtomicU32>);

impl Rounds {
    fn new(keys: u64) -> Rounds {
        Rounds((0..keys).map(|_| AtomicU32::new(0)).collect())
    }

    fn get(&self, key: u64) -> u64 {
        self.0[key as usize].load(Ordering::Acquire) as u64
    }

    fn set(&self, key: u64, round: u64) {
        self.0[key as usize].store(round as u32, Ordering::Release);
    }

    /// FNV-1a over `(key, expected value)` for every key.
    fn checksum(&self, value_len: usize) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for key in 0..self.0.len() as u64 {
            hash = lsm_storage::hash::fnv1a_64_fold(hash, &key.to_be_bytes());
            hash =
                lsm_storage::hash::fnv1a_64_fold(hash, &value_for(key, self.get(key), value_len));
        }
        hash
    }
}

/// A batch writing each of `keys` in its next round, and the `(key, round)`
/// pairs to record in `rounds` once it is acked.
fn next_batch(rounds: &Rounds, keys: &[u64], value_len: usize) -> (WriteBatch, Vec<(u64, u64)>) {
    let mut batch = WriteBatch::new();
    let mut next: Vec<(u64, u64)> = Vec::with_capacity(keys.len());
    for &key in keys {
        let round = next
            .iter()
            .rev()
            .find(|(k, _)| *k == key)
            .map(|(_, r)| r + 1)
            .unwrap_or_else(|| rounds.get(key) + 1);
        batch.put(key, value_for(key, round, value_len));
        next.push((key, round));
    }
    (batch, next)
}

/// Checks a range scan over dense keys: exactly `lo..=hi` in order, each
/// with the value of the model's latest round.
fn check_range(
    rows: &[(u64, Vec<u8>)],
    lo: u64,
    hi: u64,
    rounds: &Rounds,
    value_len: usize,
) -> Result<(), String> {
    if rows.len() as u64 != hi - lo + 1 {
        return Err(format!("scan [{lo}, {hi}] returned {} rows", rows.len()));
    }
    for (i, (key, value)) in rows.iter().enumerate() {
        if *key != lo + i as u64 {
            return Err(format!("scan [{lo}, {hi}] row {i} has key {key}"));
        }
        let want = rounds.get(*key);
        if !value_is(*key, want, value, value_len) {
            let got = round_in(*key, value);
            return Err(format!(
                "scan [{lo}, {hi}] key {key}: round {got}, model round {want}"
            ));
        }
    }
    Ok(())
}

/// Engine and facade counters at a phase boundary.
struct Counters {
    sharded: ShardedStatsSnapshot,
    leaders: CompactionStatsSnapshot,
    commit: HistogramSnapshot,
    get: HistogramSnapshot,
    scan: HistogramSnapshot,
    stall: HistogramSnapshot,
    slow_ops: u64,
    sampled: u64,
}

impl Counters {
    fn take(kv: &Kv) -> Counters {
        let hist = |name: &str| {
            kv.hub
                .registry()
                .aggregate_histogram(name)
                .unwrap_or_default()
        };
        let mut leaders = CompactionStatsSnapshot::default();
        for shard in kv.db.shards() {
            let s = shard.stats();
            leaders.flushes += s.flushes;
            leaders.compactions += s.compactions;
            leaders.bytes_written += s.bytes_written;
            leaders.stall_events += s.stall_events;
            leaders.slowdown_events += s.slowdown_events;
        }
        Counters {
            sharded: kv.db.stats(),
            leaders,
            commit: hist("laser_commit_latency_ns"),
            get: hist("laser_get_latency_ns"),
            scan: hist("laser_scan_latency_ns"),
            stall: hist("laser_stall_wait_ns"),
            slow_ops: kv.hub.slow_ops(),
            sampled: kv.hub.tracer().sampled_total(),
        }
    }
}

/// `later - earlier`, bucket by bucket.
fn hist_delta(later: &HistogramSnapshot, earlier: &HistogramSnapshot) -> HistogramSnapshot {
    let mut delta = later.clone();
    for (d, e) in delta.buckets.iter_mut().zip(earlier.buckets.iter()) {
        *d = d.saturating_sub(*e);
    }
    delta.count = later.count.saturating_sub(earlier.count);
    delta.sum = later.sum.saturating_sub(earlier.sum);
    delta
}

/// What a client hands back.
#[derive(Default)]
struct ClientOut {
    timings: ClassTimings,
    errors: Vec<String>,
    rec: Recorder,
    sub_batches: u64,
    traced_batches: u64,
}

/// What the `kv_ingest_quorum` writers share: the model, the operation
/// counts of the tracing windows, the acked user bytes, and the storage
/// bytes written plus acked user bytes once writer 0 is half done.
struct IngestState {
    rounds: Rounds,
    ops: WindowOps,
    user_bytes: AtomicU64,
    half: Mutex<Option<(u64, u64)>>,
}

/// One `kv_ingest_quorum` writer: batches of puts to random keys it owns
/// (key mod 2 = `writer`), each followed by a read of one key it owns.
fn ingest_writer(kv: &Kv, state: &IngestState, writer: u64, seed: u64, batches: u64) -> ClientOut {
    let IngestState {
        rounds,
        ops,
        user_bytes,
        half,
    } = state;
    let mut rng = writer_rng(seed, writer);
    let router = kv.db.router();
    let owned = kv.keys / 2;
    let mut out = ClientOut {
        rec: Recorder::new(writer as u32),
        ..Default::default()
    };
    for i in 0..batches {
        if writer == 0 && i == batches / 2 {
            *half.lock().unwrap() = Some((kv.bytes_written(), user_bytes.load(Ordering::Relaxed)));
        }
        let keys: Vec<u64> = (0..BATCH)
            .map(|_| 2 * rng.gen_range(0..owned) + writer)
            .collect();
        let read_key = 2 * rng.gen_range(0..owned) + writer;
        let (batch, next) = next_batch(rounds, &keys, kv.value_len);
        let span = out.rec.begin("client.ingest_iteration");
        if span.traced() {
            let mut shards: Vec<usize> = keys.iter().map(|k| router.shard_of(*k)).collect();
            shards.sort_unstable();
            shards.dedup();
            out.sub_batches += shards.len() as u64;
            out.traced_batches += 1;
        }
        let written = out.rec.call(
            &span,
            "sharding.ShardedDb::write",
            &mut out.timings.write,
            || kv.db.write(&batch),
        );
        if written.is_ok() {
            for (key, round) in next {
                rounds.set(key, round);
            }
            user_bytes.fetch_add((BATCH * (8 + kv.value_len)) as u64, Ordering::Relaxed);
        }
        let read = out.rec.call(
            &span,
            "sharding.ShardedDb::get",
            &mut out.timings.get,
            || kv.db.get(read_key, &()),
        );
        if let Ok(value) = read {
            let want = rounds.get(read_key);
            if !value.is_some_and(|v| value_is(read_key, want, &v, kv.value_len)) {
                out.errors.push(format!("get {read_key}: not round {want}"));
            }
        }
        ops.add(span.traced(), BATCH as u64 + 1);
        out.rec.end(span);
    }
    out
}

/// A client's random stream: the same seed and client give the same keys.
fn writer_rng(seed: u64, client: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ mix64(client + 1)))
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    rng.gen_range(0.0..1.0)
}

/// One `kv_read_cached` reader's share of one slice of the mix: 95% point
/// gets on Zipfian keys, 5% scans of [`SHORT_SCAN_KEYS`] keys starting at a
/// Zipfian key. No writes run before the mix ends, so every value must be
/// round 0.
fn cached_reader(
    kv: &Kv,
    zipf: &Zipf,
    client: u64,
    seed: u64,
    count: u64,
    ops: &WindowOps,
) -> ClientOut {
    let mut rng = writer_rng(seed, client);
    let mut out = ClientOut {
        rec: Recorder::new(client as u32),
        ..Default::default()
    };
    for _ in 0..count {
        let scan = unit(&mut rng) < 0.05;
        let key = zipf.key(unit(&mut rng));
        if scan {
            let lo = key.min(kv.keys - SHORT_SCAN_KEYS);
            let hi = lo + SHORT_SCAN_KEYS - 1;
            let span = out.rec.begin("client.cached_scan");
            let result = out.rec.call(
                &span,
                "sharding.ShardedDb::scan",
                &mut out.timings.short_scan,
                || kv.db.scan(lo, hi, &()),
            );
            out.rec.end(span);
            if let Ok(rows) = result {
                let ok = rows.len() as u64 == SHORT_SCAN_KEYS
                    && rows
                        .iter()
                        .enumerate()
                        .all(|(i, (k, v))| *k == lo + i as u64 && value_is(*k, 0, v, kv.value_len));
                if !ok {
                    out.errors.push(format!("scan [{lo}, {hi}]: wrong rows"));
                }
            }
        } else {
            let span = out.rec.begin("client.cached_get");
            let result = out.rec.call(
                &span,
                "sharding.ShardedDb::get",
                &mut out.timings.get,
                || kv.db.get(key, &()),
            );
            ops.add(span.traced(), 1);
            out.rec.end(span);
            if let Ok(value) = result {
                if !value.is_some_and(|v| value_is(key, 0, &v, kv.value_len)) {
                    out.errors.push(format!("get {key}: not round 0"));
                }
            }
        }
    }
    out
}

/// Range probes: for each `(i, u)` of `scans`, a range scan at stratified
/// position `u`, alternating between 5% (`q4`) and 50% (`q5`) of the key
/// space.
///
/// Each scan stays inside one shard, the shards taken in turn: a q5 scans
/// a whole shard and a q4 starts at a stratified position in one. A scan
/// across the shard boundary runs its two legs in parallel, and on a 2-vCPU
/// x86-64 host the legs contend: a 50% scan across the boundary of
/// `kv_read_cached` took 24-52 ms where one shard's 100k keys took 20-36 ms,
/// and its median moved by a third between runs. The mixes' short scans and
/// cross-shard batches time the fan-out pool.
fn range_probes(kv: &Kv, rounds: &Rounds, scans: impl Iterator<Item = (usize, f64)>) -> ClientOut {
    let mut out = ClientOut::default();
    // Shard 0 owns the lower half of the keys, shard 1 the upper.
    let half = kv.keys / 2;
    for (i, lo_frac) in scans {
        let q5 = i % 2 == 1;
        let span = if q5 { half } else { kv.keys / 20 };
        let lo = (i as u64 / 2 % 2) * half + (lo_frac * (half - span) as f64) as u64;
        let hi = lo + span - 1;
        let timings = if q5 {
            &mut out.timings.q5
        } else {
            &mut out.timings.q4
        };
        let (result, _, _) = timings.time(|| kv.db.scan(lo, hi, &()));
        if let Ok(rows) = result {
            if let Err(e) = check_range(&rows, lo, hi, rounds, kv.value_len) {
                out.errors.push(e);
            }
        }
    }
    out
}

/// Write probes: the batches numbered `batches`, each of puts to uniform
/// keys of one shard, the shards taken in turn, each checked by reading one
/// of its keys back. Single-shard batches time one shard's commit path (WAL
/// append and memtable insert).
fn batch_probes(
    kv: &Kv,
    rounds: &Rounds,
    batches: std::ops::Range<u64>,
    rng: &mut StdRng,
    user_bytes: &AtomicU64,
) -> ClientOut {
    let mut out = ClientOut::default();
    let half = kv.keys / 2;
    for b in batches {
        let base = b % 2 * half;
        let keys: Vec<u64> = (0..BATCH).map(|_| base + rng.gen_range(0..half)).collect();
        let (batch, next) = next_batch(rounds, &keys, kv.value_len);
        let (written, _, _) = out.timings.write.time(|| kv.db.write(&batch));
        if written.is_ok() {
            for (key, round) in &next {
                rounds.set(*key, *round);
            }
            user_bytes.fetch_add((BATCH * (8 + kv.value_len)) as u64, Ordering::Relaxed);
            let (key, _) = next[rng.gen_range(0..BATCH)];
            let want = rounds.get(key);
            match kv.db.get(key, &()) {
                Ok(Some(v)) if value_is(key, want, &v, kv.value_len) => {}
                _ => out
                    .errors
                    .push(format!("read-back of {key}: not round {want}")),
            }
        }
    }
    out
}

/// Blocks read per point get and per scanned row, one operation at a time
/// with no client running, for the traced run.
fn isolated_io(kv: &Kv, seed: u64, key_of: impl Fn(&mut StdRng) -> u64) -> (f64, f64) {
    let mut rng = writer_rng(seed ^ 0x10, 9);
    let blocks = || kv.db.stats().io.blocks_read;
    let (mut get_blocks, mut gets) = (0, 0u64);
    for _ in 0..2000 {
        let key = key_of(&mut rng);
        let before = blocks();
        if kv.db.get(key, &()).is_ok() {
            get_blocks += blocks() - before;
            gets += 1;
        }
    }
    let (mut scan_blocks, mut rows) = (0, 0u64);
    for _ in 0..100 {
        let lo = key_of(&mut rng).min(kv.keys - SHORT_SCAN_KEYS);
        let before = blocks();
        if let Ok(found) = kv.db.scan(lo, lo + SHORT_SCAN_KEYS - 1, &()) {
            scan_blocks += blocks() - before;
            rows += found.len() as u64;
        }
    }
    (
        get_blocks as f64 / gets.max(1) as f64,
        scan_blocks as f64 / rows.max(1) as f64,
    )
}

/// Scans the whole key space and compares its checksum with the model's.
fn full_scan_check(kv: &Kv, rounds: &Rounds, report: &mut Report) {
    match kv.db.scan(0, kv.keys - 1, &()) {
        Ok(rows) => {
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for (key, value) in &rows {
                hash = lsm_storage::hash::fnv1a_64_fold(hash, &key.to_be_bytes());
                hash = lsm_storage::hash::fnv1a_64_fold(hash, value);
            }
            if rows.len() as u64 != kv.keys || hash != rounds.checksum(kv.value_len) {
                report.wrong(format!(
                    "full-scan checksum differs from the model ({} rows)",
                    rows.len()
                ));
            }
        }
        Err(e) => report.wrong(format!("full scan failed: {e}")),
    }
}

/// Per-layer metrics shared by both workloads, over the mixed phase, which
/// made `client_ops` operations, `scans` of them `ShardedDb::scan` calls.
fn layer_metrics(
    report: &mut Report,
    kv: &Kv,
    rec: &Recorder,
    before: &Counters,
    after: &Counters,
    client_ops: u64,
    scans: u64,
) {
    let sharded = after.sharded.delta_since(&before.sharded);
    let commit = hist_delta(&after.commit, &before.commit);
    let get = hist_delta(&after.get, &before.get);
    let scan = hist_delta(&after.scan, &before.scan);
    let stall = hist_delta(&after.stall, &before.stall);
    let ns_to_us = |ns: u64| ns as f64 / 1e3;
    let self_us = |span: &str, engine: &HistogramSnapshot, calls: u64| {
        if rec.durations(span).is_empty() {
            0.0
        } else {
            rec.mean_us(span) - engine.sum as f64 / calls.max(1) as f64 / 1e3
        }
    };
    let batches = sharded.batches;
    report.set(
        "sharding.write_self_us",
        self_us("sharding.ShardedDb::write", &commit, batches),
    );
    report.set(
        "sharding.cross_shard_frac",
        sharded.cross_shard_batches as f64 / batches.max(1) as f64,
    );
    report.set(
        "sharding.get_self_us",
        self_us("sharding.ShardedDb::get", &get, get.count),
    );
    report.set(
        "sharding.scan_self_us",
        self_us("sharding.ShardedDb::scan", &scan, scan.count),
    );
    report.set(
        "sharding.fanout_scans_per_scan",
        sharded.fanout_scans as f64 / scans.max(1) as f64,
    );
    report.set("engine.commit_p50_us", ns_to_us(commit.p50()));
    report.set("engine.commit_p99_us", ns_to_us(commit.p99()));
    report.set(
        "wal.records_per_sync",
        sharded.wal.records_appended as f64 / sharded.wal.syncs.max(1) as f64,
    );
    report.set(
        "wal.coalesced_ack_frac",
        sharded.wal.coalesced_acks as f64 / sharded.wal.records_appended.max(1) as f64,
    );
    report.set("wal.rotations", sharded.wal.rotations as f64);
    report.set("stall.wait_ms", stall.sum as f64 / 1e6);
    report.set(
        "stall.events",
        (after.leaders.stall_events - before.leaders.stall_events) as f64,
    );
    report.set(
        "slowdown.events",
        (after.leaders.slowdown_events - before.leaders.slowdown_events) as f64,
    );
    report.set(
        "maintenance.flushes",
        (after.leaders.flushes - before.leaders.flushes) as f64,
    );
    report.set(
        "maintenance.compactions",
        (after.leaders.compactions - before.leaders.compactions) as f64,
    );
    report.set("engine.get_p50_us", ns_to_us(get.p50()));
    report.set("engine.scan_p50_us", ns_to_us(scan.p50()));
    report.set("read_amp", kv.read_amp());
    if let (Some(a), Some(b)) = (after.sharded.cache, before.sharded.cache) {
        let (hits, misses) = (a.hits - b.hits, a.misses - b.misses);
        report.set(
            "cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "cache.evictions_per_op",
            (a.evictions - b.evictions) as f64 / client_ops.max(1) as f64,
        );
    }
    report.set(
        "telemetry.slow_ops",
        (after.slow_ops - before.slow_ops) as f64,
    );
    report.set(
        "telemetry.sampled_traces",
        (after.sampled - before.sampled) as f64,
    );
}

/// Collects client results into `timings`, `report` errors and one recorder.
fn gather(
    outs: Vec<ClientOut>,
    timings: &mut ClassTimings,
    report: &mut Report,
    rec: &mut Recorder,
) {
    for out in outs {
        timings.merge(&out.timings);
        for e in out.errors {
            report.wrong(e);
        }
        rec.absorb(out.rec);
    }
}

/// Runs `clients` closures `f(client)` on their own threads while the main
/// thread drives the tracing windows and calls `sample`.
fn run_clients<F>(
    cfg: &RunConfig,
    clients: u64,
    ops: &WindowOps,
    f: F,
    sample: impl FnMut(),
) -> (Vec<ClientOut>, Windows)
where
    F: Fn(u64) -> ClientOut + Sync,
{
    let finished = AtomicU64::new(0);
    let done = || finished.load(Ordering::Acquire) == clients;
    let start = Instant::now();
    let (outs, windows) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (f, finished) = (&f, &finished);
                s.spawn(move || {
                    let out = f(c);
                    finished.fetch_add(1, Ordering::Release);
                    out
                })
            })
            .collect();
        let windows = drive_phase(
            cfg.trace,
            start + Duration::from_secs(150),
            ops,
            done,
            sample,
        );
        let outs: Vec<ClientOut> = handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect();
        (outs, windows)
    });
    (outs, windows)
}

/// `kv_ingest_quorum`.
pub fn run_ingest(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let kv = cfg.repeated_setup(report, setup_ingest)?;
    let state = IngestState {
        rounds: Rounds::new(kv.keys),
        ops: WindowOps::default(),
        user_bytes: AtomicU64::new(0),
        half: Mutex::new(None),
    };
    let IngestState {
        rounds,
        ops,
        user_bytes,
        half,
    } = &state;
    let lags: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let batches = (INGEST_BATCHES_PER_SECOND * cfg.seconds) as u64;
    let before = Counters::take(&kv);
    let written_before = kv.bytes_written();
    let (writers, windows) = run_clients(
        cfg,
        2,
        ops,
        |w| ingest_writer(&kv, &state, w, cfg.seed, batches),
        || {
            let mut lags = lags.lock().unwrap();
            for shard in kv.db.replication_status() {
                for replica in &shard.replicas {
                    lags.push(shard.leader_seq.saturating_sub(replica.applied_seq));
                }
            }
        },
    );
    let after = Counters::take(&kv);
    let acked_bytes = user_bytes.load(Ordering::Relaxed);

    // Replicas catch up to the leaders' horizon.
    let horizon = kv.db.snapshot().seqs().to_vec();
    let caught_up = |kv: &Kv| {
        kv.db
            .replication_status()
            .iter()
            .zip(&horizon)
            .all(|(s, seq)| s.replicas.iter().all(|r| r.applied_seq >= *seq))
    };
    let catchup_start = Instant::now();
    while !caught_up(&kv) {
        if catchup_start.elapsed() > Duration::from_secs(20) {
            report.wrong("replicas did not catch up within 20 s".into());
            break;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    let catchup_ms = catchup_start.elapsed().as_secs_f64() * 1e3;

    // Drain: queued maintenance idles (space is measured there), then
    // flush. Write amplification counts the drained debt too.
    let drain_start = Instant::now();
    kv.db.wait_maintenance_idle();
    let space_amp = kv.space_amp();
    if let Err(e) = kv.db.flush() {
        report.wrong(format!("final flush failed: {e}"));
    }
    kv.db.wait_maintenance_idle();
    let drain_s = drain_start.elapsed().as_secs_f64();
    let written_after = kv.bytes_written();

    let positions = stratified(&mut writer_rng(cfg.seed ^ 0x5ca7, 0), PROBE_SCANS);
    let scanner = range_probes(&kv, rounds, positions.into_iter().enumerate());
    full_scan_check(&kv, rounds, report);

    let mut timings = ClassTimings::default();
    let mut rec = Recorder::new(0);
    let traced_batches: u64 = writers.iter().map(|w| w.traced_batches).sum();
    let sub_batches: u64 = writers.iter().map(|w| w.sub_batches).sum();
    gather(writers, &mut timings, report, &mut rec);
    gather(vec![scanner], &mut timings, report, &mut rec);
    report.outcome = timings.outcome();
    let client_ops = timings.write.attempted() * BATCH as u64 + timings.get.attempted();
    report.set("ops_per_s", windows.rate());
    report.set_timings(&timings);
    report.set(
        "write_amp",
        (written_after - written_before) as f64 / acked_bytes.max(1) as f64,
    );
    report.set("space_amp", space_amp);
    report.set("failed_frac", report.outcome.failed_frac());
    if let Some((written_half, bytes_half)) = *half.lock().unwrap() {
        report.set(
            "write_amp_second_half",
            (written_after - written_half) as f64
                / acked_bytes.saturating_sub(bytes_half).max(1) as f64,
        );
    }
    report.notes.push(format!(
        "acked user bytes {acked_bytes}; storage bytes written through the drain (leaders + replicas) {}",
        written_after - written_before
    ));
    if cfg.trace {
        layer_metrics(report, &kv, &rec, &before, &after, client_ops, 0);
        report.set(
            "sharding.sub_batches_per_batch",
            sub_batches as f64 / traced_batches.max(1) as f64,
        );
        let mut lags = lags.into_inner().unwrap();
        lags.sort_unstable();
        let p99 = lags
            .get(((lags.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
            .copied();
        report.set("replication.lag_seqs_p99", p99.unwrap_or(0) as f64);
        report.set("replication.catchup_ms", catchup_ms);
        let leaders_written = after.leaders.bytes_written - before.leaders.bytes_written;
        report.set(
            "maintenance.compaction_bytes_per_user_byte",
            leaders_written as f64 / acked_bytes.max(1) as f64,
        );
        report.set("maintenance.drain_s", drain_s);
        let keys = kv.keys;
        let (per_get, per_row) = isolated_io(&kv, cfg.seed, |rng| rng.gen_range(0..keys));
        report.set("io.blocks_read_per_get", per_get);
        report.set("io.blocks_read_per_scan_row", per_row);
        report.set("trace_overhead_pct", windows.overhead_pct());
        cfg.write_trace(report, &rec);
    }
    Ok(())
}

/// Set-up of `kv_read_cached`: load, flush and compact, then warm the
/// cache with full scans plus Zipfian gets until its hit rate levels off.
fn setup_cached() -> lsm_storage::Result<Kv> {
    let options = ShardedOptions {
        cache_bytes: 64 << 20,
        ..sharded_options(CACHED_KEYS)
    };
    let kv = open(CACHED_KEYS, CACHED_VALUE, false, options)?;
    kv.load()?;
    kv.db.flush()?;
    kv.db.compact_until_stable()?;
    kv.db.wait_maintenance_idle();
    let zipf = Zipf::new(kv.keys, ZIPF_THETA);
    let mut rng = StdRng::seed_from_u64(0x3a3a);
    let mut previous = -1.0;
    for _ in 0..8 {
        kv.db.scan(0, kv.keys - 1, &())?;
        let before = kv.db.stats().cache.unwrap_or_default();
        for _ in 0..20_000 {
            kv.db.get(zipf.key(unit(&mut rng)), &())?;
        }
        let after = kv.db.stats().cache.unwrap_or_default();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        if (rate - previous).abs() < 1e-3 {
            break;
        }
        previous = rate;
    }
    Ok(kv)
}

/// `kv_read_cached`.
pub fn run_cached(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let kv = cfg.repeated_setup(report, setup_cached)?;
    let zipf = Zipf::new(kv.keys, ZIPF_THETA);
    let rounds = Rounds::new(kv.keys);
    let ops = WindowOps::default();
    let count = (CACHED_OPS_PER_SECOND * cfg.seconds) as u64;
    // An untraced run cuts the mix into slices, each followed by its share
    // of the probes, so they sample the host across the whole run as the
    // mix's operations do (on a shared host its speed drifts by tens of
    // percent within seconds). A traced run keeps them after the whole mix
    // so its per-layer counters cover the mix alone. The write probes go to
    // an empty twin of the database: LsmDb range scans copy the whole
    // memtable, so writes to the read store would slow the mix's short
    // scans, and the store must stay write-free.
    let slices = if cfg.trace { 1 } else { MIX_SLICES };
    let twin = open(
        CACHED_KEYS,
        CACHED_VALUE,
        false,
        sharded_options(CACHED_KEYS),
    )
    .map_err(|e| format!("opening the write-probe twin failed: {e}"))?;
    let twin_rounds = Rounds::new(twin.keys);
    let positions = stratified(&mut writer_rng(cfg.seed ^ 0x5ca7, 0), PROBE_SCANS);
    let mut write_rng = writer_rng(cfg.seed ^ 0xb47c, 0);
    let user_bytes = AtomicU64::new(0);
    let (mut readers, mut probes, mut windows) = (Vec::new(), Vec::new(), Windows::default());
    let before = Counters::take(&kv);
    let mut after = None;
    for slice in 0..slices {
        let (outs, slice_windows) = run_clients(
            cfg,
            2,
            &ops,
            |c| {
                let seed = mix64(cfg.seed ^ mix64(slice as u64));
                cached_reader(&kv, &zipf, c, seed, count / slices as u64, &ops)
            },
            || {},
        );
        readers.extend(outs);
        windows.absorb(slice_windows);
        if slice + 1 == slices {
            after = Some(Counters::take(&kv));
        }
        let share = PROBE_SCANS / slices;
        let scans = positions.iter().copied().enumerate().skip(slice * share);
        probes.push(range_probes(&kv, &rounds, scans.take(share)));
        let share = PROBE_BATCHES / slices as u64;
        let batches = slice as u64 * share..(slice as u64 + 1) * share;
        probes.push(batch_probes(
            &twin,
            &twin_rounds,
            batches,
            &mut write_rng,
            &user_bytes,
        ));
    }
    let after = after.expect("at least one slice");
    kv.db.wait_maintenance_idle();
    let space_amp = kv.space_amp();
    twin.db.wait_maintenance_idle();
    let written = twin.bytes_written();
    full_scan_check(&kv, &rounds, report);

    let mut timings = ClassTimings::default();
    let mut rec = Recorder::new(0);
    gather(readers, &mut timings, report, &mut rec);
    gather(probes, &mut timings, report, &mut rec);
    report.outcome = timings.outcome();
    let gets = timings.get.attempted();
    report.set("ops_per_s", windows.rate());
    report.set_timings(&timings);
    let acked_bytes = user_bytes.load(Ordering::Relaxed);
    report.set("write_amp", written as f64 / acked_bytes.max(1) as f64);
    report.set("space_amp", space_amp);
    report.set("failed_frac", report.outcome.failed_frac());
    if cfg.trace {
        let scans = timings.short_scan.attempted();
        layer_metrics(report, &kv, &rec, &before, &after, gets + scans, scans);
        let (per_get, per_row) = isolated_io(&kv, cfg.seed, |rng| zipf.key(unit(rng)));
        report.set("io.blocks_read_per_get", per_get);
        report.set("io.blocks_read_per_scan_row", per_row);
        report.set("trace_overhead_pct", windows.overhead_pct());
        cfg.write_trace(report, &rec);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_streams_follow_the_seed() {
        let draw = |seed, client| {
            let mut rng = writer_rng(seed, client);
            (0..100)
                .map(|_| rng.gen_range(0..1_000_000u64))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5, 0), draw(5, 0));
        assert_ne!(draw(5, 0), draw(6, 0));
        assert_ne!(draw(5, 0), draw(5, 1));
    }

    #[test]
    fn range_checks_follow_the_model() {
        let rounds = Rounds::new(4);
        rounds.set(2, 3);
        let rows: Vec<(u64, Vec<u8>)> = (1..=3)
            .map(|k| (k, value_for(k, rounds.get(k), 8)))
            .collect();
        assert!(check_range(&rows, 1, 3, &rounds, 8).is_ok());
        assert!(check_range(&rows[..2], 1, 3, &rounds, 8).is_err());
        let stale: Vec<(u64, Vec<u8>)> = (1..=3).map(|k| (k, value_for(k, 0, 8))).collect();
        assert!(check_range(&stale, 1, 3, &rounds, 8)
            .unwrap_err()
            .contains("round 0, model round 3"));
        let shifted: Vec<(u64, Vec<u8>)> = (2..=4).map(|k| (k, value_for(k, 0, 8))).collect();
        assert!(check_range(&shifted, 1, 3, &rounds, 8).is_err());
    }
}
