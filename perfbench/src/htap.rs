//! `htap_dopt`: the paper's lifecycle-driven HTAP mix HW (Section 7.2,
//! Table 3) on one in-memory `LaserDb` with the advisor's D-opt layout.
//!
//! One OLTP client replays the Q1/Q2a/Q2b/Q3 stream of
//! `HtapWorkloadSpec::generate_steady` at Table 3 ratios; one OLAP client
//! runs Q4 (5% of the loaded keys, columns 21–30) and Q5 (50%, columns
//! 28–30) alternately over keys already acked, until the OLTP client has
//! replayed a fixed stream of `10000 × --seconds` inserts with their reads
//! and updates. The mix has every measured operation class, so this is the
//! only timed phase.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

use laser_core::lsm_storage::storage::IoStatsSnapshot;
use laser_core::lsm_storage::{BlockCacheStats, WalStatsSnapshot};
use laser_core::{
    EngineStatsSnapshot, LaserDb, LaserOptions, LayoutSpec, Projection, RowFragment, Schema, Value,
};
use laser_sharding::ShardEngine;
use laser_workload::{HtapWorkloadSpec, HwQuery, Operation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::{ClassTimings, Report};
use crate::spans::Recorder;
use crate::stats::Timings;
use crate::util::{drive_phase, stratified, WindowOps};
use crate::RunConfig;

/// Rows loaded in set-up.
pub const LOAD_KEYS: u64 = 100_000;
/// Memtable, Level-0 and SST target size.
const SIZE_TARGET: u64 = 256 << 10;
/// Block cache: smaller than the ~15 MB of loaded SSTs.
const CACHE_BYTES: usize = 4 << 20;
/// OLTP inserts per second of `--seconds`: the rate the OLTP client
/// sustains beside the OLAP client on a 2-vCPU x86-64 host (60k inserts
/// took 5.5 s, 110k took 11.4 s), so the fixed stream lasts about
/// `--seconds`. The work is
/// fixed rather than the time so every run does the same inserts,
/// compactions and final data size whatever the host's speed.
const INSERTS_PER_SECOND: f64 = 10_000.0;
/// Q4 plus Q5 queries per second of `--seconds`.
const SCANS_PER_SECOND: f64 = 6.0;
/// Inserts per generated chunk of the OLTP stream.
const CHUNK_INSERTS: u64 = 4096;

/// The workload specification: the paper's Table 3 operation ratios
/// (per insert: 2.5% Q2a, 2.5% Q2b, 1% Q3 updates) on the 30-column table.
pub fn spec() -> HtapWorkloadSpec {
    let paper = HtapWorkloadSpec::paper_scale();
    HtapWorkloadSpec {
        load_keys: LOAD_KEYS,
        ..paper
    }
}

/// The OLTP stream, generated from `seed` in chunks of [`CHUNK_INSERTS`]
/// inserts so it can run for as long as the timed phase lasts.
pub struct OltpStream {
    spec: HtapWorkloadSpec,
    rng: StdRng,
    next_key: u64,
    buffer: std::vec::IntoIter<Operation>,
}

impl OltpStream {
    /// The stream for `seed`, starting after the loaded keys.
    pub fn new(seed: u64) -> OltpStream {
        OltpStream {
            spec: spec(),
            rng: StdRng::seed_from_u64(seed),
            next_key: LOAD_KEYS,
            buffer: Vec::new().into_iter(),
        }
    }
}

impl Iterator for OltpStream {
    type Item = Operation;

    fn next(&mut self) -> Option<Operation> {
        if let Some(op) = self.buffer.next() {
            return Some(op);
        }
        let ratio = |count: u64| count as f64 / self.spec.steady_inserts as f64;
        let chunk = HtapWorkloadSpec {
            load_keys: self.next_key,
            steady_inserts: CHUNK_INSERTS,
            q2a_count: (CHUNK_INSERTS as f64 * ratio(self.spec.q2a_count)).round() as u64,
            q2b_count: (CHUNK_INSERTS as f64 * ratio(self.spec.q2b_count)).round() as u64,
            q4_count: 0,
            q5_count: 0,
            ..self.spec.clone()
        };
        self.next_key += CHUNK_INSERTS;
        self.buffer = chunk.generate_steady(&mut self.rng).operations.into_iter();
        self.buffer.next()
    }
}

/// One analytic query of the OLAP client: which template and where in the
/// acked key range it starts, as a fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OlapQuery {
    /// Q4 or Q5.
    pub query: HwQuery,
    /// Start of the range as a fraction of the acked keys that leave room.
    pub lo_frac: f64,
}

/// The OLAP client's `count` queries for `seed`: Q4 and Q5 alternately,
/// each template's start positions stratified over the acked range.
pub fn olap_queries(seed: u64, count: usize) -> Vec<OlapQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0a1a_9000_0000_0001);
    let q4 = stratified(&mut rng, count.div_ceil(2));
    let q5 = stratified(&mut rng, count / 2);
    (0..count)
        .map(|i| {
            let (query, lo_frac) = if i % 2 == 0 {
                (HwQuery::Q4, q4[i / 2])
            } else {
                (HwQuery::Q5, q5[i / 2])
            };
            OlapQuery { query, lo_frac }
        })
        .collect()
}

/// Expected contents: every loaded or inserted row is the benchmark's
/// integer row (`a_i = key % 1000 + i`), overridden by acked Q3 updates.
#[derive(Default)]
struct Model {
    updates: RwLock<HashMap<u64, Vec<(usize, i64)>>>,
    /// Keys `0..acked` are acked (inserted in key order).
    acked: AtomicU64,
}

impl Model {
    fn expected(updates: &HashMap<u64, Vec<(usize, i64)>>, key: u64, col: usize) -> i64 {
        updates
            .get(&key)
            .and_then(|cells| cells.iter().rev().find(|(c, _)| *c == col))
            .map(|(_, v)| *v)
            .unwrap_or((key % 1000) as i64 + col as i64 + 1)
    }

    /// Checks that `row` holds exactly the projected columns with their
    /// expected values.
    fn check(
        updates: &HashMap<u64, Vec<(usize, i64)>>,
        key: u64,
        row: &RowFragment,
        projection: &Projection,
    ) -> Result<(), String> {
        if row.len() != projection.len() {
            return Err(format!(
                "key {key}: {} columns, projected {}",
                row.len(),
                projection.len()
            ));
        }
        for col in projection.iter() {
            let want = Model::expected(updates, key, col);
            match row.get(col) {
                Some(Value::Int(got)) if *got == want => {}
                other => return Err(format!("key {key} col {col}: got {other:?}, want {want}")),
            }
        }
        Ok(())
    }
}

fn options() -> LaserOptions {
    let layout = LayoutSpec::d_opt_paper(&Schema::narrow()).expect("30-column table");
    let mut o = LaserOptions::new(layout);
    o.memtable_size_bytes = SIZE_TARGET as usize;
    o.level0_size_bytes = SIZE_TARGET;
    o.sst_target_size_bytes = SIZE_TARGET;
    o.size_ratio = 2;
    o.num_levels = 8;
    o.block_cache_bytes = CACHE_BYTES;
    o.sync_wal = false;
    o.auto_compact = true;
    o
}

/// Set-up: open the engine and load [`LOAD_KEYS`] rows (the spec's load
/// phase), then flush and let inline compaction settle.
fn setup() -> laser_core::lsm_storage::Result<LaserDb> {
    let db = LaserDb::open_in_memory(options())?;
    for op in spec().generate_load().operations {
        if let Operation::Insert { key, base } = op {
            db.insert_int_row(key, base)?;
        }
    }
    db.flush()?;
    db.compact_until_stable()?;
    Ok(db)
}

/// Counters sampled at phase boundaries.
struct Counters {
    stats: EngineStatsSnapshot,
    io: IoStatsSnapshot,
    wal: WalStatsSnapshot,
    cache: BlockCacheStats,
}

impl Counters {
    fn take(db: &LaserDb) -> Counters {
        Counters {
            stats: db.stats(),
            io: db.storage().io_stats().snapshot(),
            wal: db.wal_stats(),
            cache: db.block_cache().map(|c| c.stats()).unwrap_or_default(),
        }
    }
}

/// What the OLTP client hands back.
#[derive(Default)]
struct OltpResult {
    /// Q1/Q3 as writes, Q2b as gets.
    timings: ClassTimings,
    /// Q2a reads, timed apart from Q2b (see [`run`]).
    q2a: Timings,
    /// Acked user bytes (key plus encoded row) of inserts.
    inserted_bytes: u64,
    /// Acked user bytes (key plus encoded fragment) of updates.
    updated_bytes: u64,
    /// Storage I/O and acked user bytes once half the inserts are done.
    half: Option<(IoStatsSnapshot, u64)>,
    errors: Vec<String>,
    rec: Recorder,
}

/// What the OLAP client hands back.
#[derive(Default)]
struct OlapResult {
    timings: ClassTimings,
    rows: u64,
    scan_ns: u64,
    errors: Vec<String>,
    rec: Recorder,
}

fn row_bytes(row: &RowFragment, columns: usize) -> u64 {
    8 + row.encode(columns).len() as u64
}

fn oltp_client(
    db: &LaserDb,
    model: &Model,
    seed: u64,
    inserts: u64,
    ops: &WindowOps,
) -> OltpResult {
    let schema = db.schema().clone();
    let columns = schema.num_columns();
    let mut out = OltpResult {
        rec: Recorder::new(0),
        ..Default::default()
    };
    let q2b = spec().projection_for(HwQuery::Q2b);
    let insert_bytes: Vec<u64> = (0..1000)
        .map(|base| row_bytes(&RowFragment::int_row(&schema, base), columns))
        .collect();
    let last_key = LOAD_KEYS + inserts - 1;
    for op in OltpStream::new(seed) {
        if let Operation::Insert { key, .. } = op {
            if key > last_key {
                break;
            }
            if key == LOAD_KEYS + inserts / 2 {
                out.half = Some((
                    db.storage().io_stats().snapshot(),
                    out.inserted_bytes + out.updated_bytes,
                ));
            }
        }
        let span = out.rec.begin("client.htap_oltp_op");
        match op {
            Operation::Insert { key, base } => {
                let result = out.rec.call(
                    &span,
                    "core.LaserDb::insert",
                    &mut out.timings.write,
                    || db.insert_int_row(key, base),
                );
                if result.is_ok() {
                    out.inserted_bytes += insert_bytes[base.rem_euclid(1000) as usize];
                    model.acked.store(key + 1, Ordering::Release);
                }
            }
            Operation::PointRead { key, projection } => {
                let timings = if projection == q2b {
                    &mut out.timings.get
                } else {
                    &mut out.q2a
                };
                let result = out.rec.call(&span, "core.LaserDb::read", timings, || {
                    db.read(key, &projection)
                });
                if let Ok(row) = result {
                    let updates = model.updates.read().unwrap();
                    let checked = match row {
                        Some(row) => Model::check(&updates, key, &row, &projection),
                        None => Err(format!("key {key} missing")),
                    };
                    if let Err(e) = checked {
                        out.errors.push(format!("Q2 read: {e}"));
                    }
                }
            }
            Operation::Update { key, values } => {
                let fragment_bytes = row_bytes(&RowFragment::from_cells(values.clone()), columns);
                let result = out.rec.call(
                    &span,
                    "core.LaserDb::update",
                    &mut out.timings.write,
                    || db.update(key, values.clone()),
                );
                if result.is_ok() {
                    out.updated_bytes += fragment_bytes;
                    let mut updates = model.updates.write().unwrap();
                    let cells = updates.entry(key).or_default();
                    for (col, value) in values {
                        if let Value::Int(v) = value {
                            cells.push((col, v));
                        }
                    }
                }
            }
            Operation::Scan { .. } | Operation::Delete { .. } => {
                unreachable!("not in the OLTP stream")
            }
        }
        ops.add(span.traced(), 1);
        out.rec.end(span);
    }
    out
}

/// Checks a range scan over dense keys: exactly `lo..=hi` in order, and
/// the projected values of every row no concurrent Q3 update can still
/// touch (older than the recent 1% of `acked`).
fn check_scan(
    model: &Model,
    rows: &[(u64, RowFragment)],
    lo: u64,
    hi: u64,
    acked: u64,
    projection: &Projection,
) -> Result<(), String> {
    if rows.len() as u64 != hi - lo + 1 {
        return Err(format!("scan [{lo}, {hi}] returned {} rows", rows.len()));
    }
    let stable_below = acked.saturating_sub(acked / 100 + 2);
    let updates = model.updates.read().unwrap();
    for (i, (key, row)) in rows.iter().enumerate() {
        if *key != lo + i as u64 {
            return Err(format!("scan [{lo}, {hi}] row {i} has key {key}"));
        }
        if *key < stable_below {
            Model::check(&updates, *key, row, projection)?;
        } else if row.len() != projection.len() {
            return Err(format!(
                "key {key}: {} columns, projected {}",
                row.len(),
                projection.len()
            ));
        }
    }
    Ok(())
}

fn olap_client(db: &LaserDb, model: &Model, seed: u64, inserts: u64, count: usize) -> OlapResult {
    let spec = spec();
    let mut out = OlapResult {
        rec: Recorder::new(1),
        ..Default::default()
    };
    for (i, q) in olap_queries(seed, count).into_iter().enumerate() {
        // Paced by the OLTP client's progress: query i waits for i/count
        // of the inserts, so the two clients overlap the same way each run.
        let due = LOAD_KEYS + inserts * i as u64 / count as u64;
        while model.acked.load(Ordering::Acquire) < due {
            std::thread::sleep(Duration::from_micros(100));
        }
        let (selectivity, name, root) = match q.query {
            HwQuery::Q4 => (
                spec.q4_selectivity,
                "core.LaserDb::scan[q4]",
                "client.htap_q4",
            ),
            _ => (
                spec.q5_selectivity,
                "core.LaserDb::scan[q5]",
                "client.htap_q5",
            ),
        };
        let projection = spec.projection_for(q.query);
        let span_keys = (selectivity * LOAD_KEYS as f64) as u64;
        let acked = model.acked.load(Ordering::Acquire);
        let lo = (q.lo_frac * (acked - span_keys) as f64) as u64;
        let hi = lo + span_keys - 1;
        let span = out.rec.begin(root);
        let timings = if q.query == HwQuery::Q4 {
            &mut out.timings.q4
        } else {
            &mut out.timings.q5
        };
        let (result, start, end) = timings.time(|| db.scan(lo, hi, &projection));
        out.rec.child(&span, name, start, end);
        out.rec.end(span);
        if let Ok(rows) = result {
            out.rows += rows.len() as u64;
            out.scan_ns += (end - start).as_nanos() as u64;
            if let Err(e) = check_scan(model, &rows, lo, hi, acked, &projection) {
                out.errors.push(format!("{:?}: {e}", q.query));
            }
        }
    }
    out
}

/// Blocks read per point read and per scanned row, measured one operation
/// at a time with no other client running.
fn isolated_io(db: &LaserDb, seed: u64, acked: u64) -> (f64, f64) {
    let spec = spec();
    let io = db.storage().io_stats();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10_0000_0003);
    let (mut get_blocks, mut gets) = (0u64, 0u64);
    for i in 0..2000u64 {
        let query = if i % 2 == 0 {
            HwQuery::Q2a
        } else {
            HwQuery::Q2b
        };
        let key = spec
            .key_distribution_for(query)
            .unwrap()
            .sample_key(&mut rng, acked);
        let before = io.snapshot();
        if db.read(key, &spec.projection_for(query)).is_ok() {
            get_blocks += io.snapshot().delta_since(&before).blocks_read;
            gets += 1;
        }
    }
    let (mut scan_blocks, mut scan_rows) = (0u64, 0u64);
    for query in [HwQuery::Q4, HwQuery::Q5, HwQuery::Q4, HwQuery::Q5] {
        let span_keys = (spec.q4_selectivity * LOAD_KEYS as f64) as u64;
        let lo = rng.gen_range(0..acked - span_keys);
        let before = io.snapshot();
        if let Ok(rows) = db.scan(lo, lo + span_keys - 1, &spec.projection_for(query)) {
            scan_blocks += io.snapshot().delta_since(&before).blocks_read;
            scan_rows += rows.len() as u64;
        }
    }
    (
        get_blocks as f64 / gets.max(1) as f64,
        scan_blocks as f64 / scan_rows.max(1) as f64,
    )
}

/// Runs the workload and fills `report`.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let db = Arc::new(cfg.repeated_setup(report, setup)?);
    let model = Model {
        acked: AtomicU64::new(LOAD_KEYS),
        ..Default::default()
    };
    let schema = db.schema().clone();
    let loaded_bytes: u64 = (0..LOAD_KEYS)
        .map(|k| {
            row_bytes(
                &RowFragment::int_row(&schema, (k % 1000) as i64),
                schema.num_columns(),
            )
        })
        .sum();

    // ---- Timed phase: OLTP + OLAP clients.
    let ops = WindowOps::default();
    let oltp_done = AtomicBool::new(false);
    let before = Counters::take(&db);
    let inserts = (INSERTS_PER_SECOND * cfg.seconds) as u64;
    let start = Instant::now();
    let cap = start + Duration::from_secs(150);
    let (oltp, olap, windows) = std::thread::scope(|s| {
        let oltp = s.spawn(|| {
            let out = oltp_client(&db, &model, cfg.seed, inserts, &ops);
            oltp_done.store(true, Ordering::Release);
            out
        });
        let olap = s.spawn(|| {
            olap_client(
                &db,
                &model,
                cfg.seed,
                inserts,
                (SCANS_PER_SECOND * cfg.seconds) as usize,
            )
        });
        let windows = drive_phase(
            cfg.trace,
            cap,
            &ops,
            || oltp_done.load(Ordering::Acquire),
            || {},
        );
        let oltp = oltp.join().expect("OLTP client");
        (oltp, olap.join().expect("OLAP client"), windows)
    });
    let after = Counters::take(&db);

    // ---- Amplification, after the phase (inline maintenance is idle).
    let acked = model.acked.load(Ordering::Acquire);
    let columns = schema.num_columns();
    let live_bytes = {
        // An updated row is stored once, with its updated values.
        let updates = model.updates.read().unwrap();
        let mut live = loaded_bytes + oltp.inserted_bytes;
        for (key, cells) in updates.iter() {
            let base = RowFragment::int_row(&schema, (key % 1000) as i64);
            let mut row = base.clone();
            for (col, v) in cells {
                row.set(*col, Value::Int(*v));
            }
            live = live + row_bytes(&row, columns) - row_bytes(&base, columns);
        }
        live
    };
    let stored = db.total_sst_bytes() + db.buffered_bytes();
    let acked_user_bytes = oltp.inserted_bytes + oltp.updated_bytes;
    let io = after.io.delta_since(&before.io);
    let write_amp = io.bytes_written as f64 / acked_user_bytes.max(1) as f64;
    let second_half = oltp
        .half
        .map(|(io_half, bytes_half)| {
            let written = after.io.bytes_written.saturating_sub(io_half.bytes_written);
            written as f64 / acked_user_bytes.saturating_sub(bytes_half).max(1) as f64
        })
        .unwrap_or(0.0);
    let read_amp = db.shard_tree_shape().read_amp();
    let drain_start = Instant::now();
    let drained = db.flush();
    let drain_s = drain_start.elapsed().as_secs_f64();
    if let Err(e) = drained {
        report.wrong(format!("final flush failed: {e}"));
    }

    let mut timings = oltp.timings.clone();
    timings.merge(&olap.timings);
    for e in oltp.errors.iter().chain(&olap.errors) {
        report.wrong(e.clone());
    }
    report.outcome = timings.outcome();
    report.outcome.add(&oltp.q2a);
    report.set("ops_per_s", windows.rate());
    // Q2a reads recent rows from the row-oriented top levels, Q2b older rows
    // from the column-group levels; in equal numbers their latencies form
    // two clusters, and a median over both falls in the gap between them.
    // get_p50_us is the Q2b median, the reads core serves; Q2a is reported
    // with the per-layer metrics.
    report.set_timings(&timings);
    report.set(
        "q2a_p50_us",
        oltp.q2a.summary().median().unwrap_or(0) as f64 / 1e3,
    );
    report.set("write_amp", write_amp);
    report.set("write_amp_second_half", second_half);
    report.set("space_amp", stored as f64 / live_bytes.max(1) as f64);
    report.set("failed_frac", report.outcome.failed_frac());
    report.notes.push(format!(
        "rows acked {acked} (loaded {LOAD_KEYS}); scan rows {}; stored {stored} B, live {live_bytes} B",
        olap.rows
    ));

    if cfg.trace {
        let mut rec = oltp.rec;
        rec.absorb(olap.rec);
        let stats = after.stats.delta_since(&before.stats);
        let level_sum = |s: &EngineStatsSnapshot, f: fn(&laser_core::LevelProfile) -> u64| {
            s.levels.iter().map(f).sum::<u64>()
        };
        let point_reads = stats.point_reads.max(1) as f64;
        let levels_touched = level_sum(&after.stats, |l| l.point_reads)
            - level_sum(&before.stats, |l| l.point_reads);
        let groups = after.stats.total_point_read_groups() - before.stats.total_point_read_groups();
        let scan_entries = level_sum(&after.stats, |l| l.scan_entries)
            - level_sum(&before.stats, |l| l.scan_entries);
        let wal = after.wal.delta_since(&before.wal);
        let cache_hits = after.cache.hits - before.cache.hits;
        let cache_misses = after.cache.misses - before.cache.misses;
        let all_ops = report.outcome.attempted.max(1) as f64;
        let (blocks_per_get, blocks_per_row) = isolated_io(&db, cfg.seed, acked);
        let commit = ["core.LaserDb::insert", "core.LaserDb::update"];
        report.set("engine.commit_p50_us", rec.quantile_us(&commit, 0.5));
        report.set("engine.commit_p99_us", rec.quantile_us(&commit, 0.99));
        report.set(
            "wal.records_per_sync",
            wal.records_appended as f64 / wal.syncs.max(1) as f64,
        );
        report.set(
            "wal.coalesced_ack_frac",
            wal.coalesced_acks as f64 / wal.records_appended.max(1) as f64,
        );
        report.set("wal.rotations", wal.rotations as f64);
        report.set("stall.events", stats.stall_events as f64);
        report.set("slowdown.events", stats.slowdown_events as f64);
        report.set("maintenance.flushes", stats.flushes as f64);
        report.set("maintenance.compactions", stats.compactions as f64);
        report.set(
            "maintenance.compaction_bytes_per_user_byte",
            stats.compaction_bytes_written as f64 / acked_user_bytes.max(1) as f64,
        );
        report.set("maintenance.drain_s", drain_s);
        report.set(
            "engine.get_p50_us",
            rec.quantile_us(&["core.LaserDb::read"], 0.5),
        );
        report.set(
            "engine.scan_p50_us",
            rec.quantile_us(&["core.LaserDb::scan[q4]"], 0.5),
        );
        report.set("read_amp", read_amp);
        report.set(
            "cache.hit_rate",
            cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
        );
        report.set(
            "cache.evictions_per_op",
            (after.cache.evictions - before.cache.evictions) as f64 / all_ops,
        );
        report.set("io.blocks_read_per_get", blocks_per_get);
        report.set("io.blocks_read_per_scan_row", blocks_per_row);
        report.set("core.groups_fetched_per_read", groups as f64 / point_reads);
        report.set(
            "core.levels_touched_per_read",
            levels_touched as f64 / point_reads,
        );
        report.set(
            "core.scan_entries_per_row",
            scan_entries as f64 / olap.rows.max(1) as f64,
        );
        report.set(
            "core.scan_rows_per_s",
            olap.rows as f64 / (olap.scan_ns as f64 / 1e9).max(1e-9),
        );
        report.set("trace_overhead_pct", windows.overhead_pct());
        cfg.write_trace(report, &rec);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed| OltpStream::new(seed).take(20_000).collect::<Vec<_>>();
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let q = |seed| olap_queries(seed, 50);
        assert_eq!(q(7), q(7));
        assert_ne!(q(7), q(8));
    }

    #[test]
    fn stream_keeps_table3_ratios_and_dense_keys() {
        let ops: Vec<_> = OltpStream::new(1).take(3 * 4096 * 106 / 100).collect();
        let inserts: Vec<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Operation::Insert { key, .. } => Some(*key),
                _ => None,
            })
            .collect();
        let expected: Vec<u64> = (LOAD_KEYS..LOAD_KEYS + inserts.len() as u64).collect();
        assert_eq!(inserts, expected);
        let reads = ops
            .iter()
            .filter(|op| matches!(op, Operation::PointRead { .. }))
            .count();
        let ratio = reads as f64 / inserts.len() as f64;
        assert!((ratio - 0.05).abs() < 0.005, "reads per insert {ratio}");
    }
}
