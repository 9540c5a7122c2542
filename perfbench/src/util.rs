//! Helpers shared by the workloads: deterministic values, key
//! distributions, the timed-phase loop and process memory.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::Rng;

use crate::spans;

/// The value a key-value workload writes for `key` in overwrite `round`:
/// the first 8 bytes hold `key * 31 + round` little-endian, the rest a
/// key/round-derived fill byte, so any stored value names its own round.
pub fn value_for(key: u64, round: u64, len: usize) -> Vec<u8> {
    let mut value = vec![(key as u8) ^ (round as u8) ^ 0x5a; len.max(8)];
    value[..8].copy_from_slice(&key.wrapping_mul(31).wrapping_add(round).to_le_bytes());
    value
}

/// Whether `value` is the value of `key` in `round`, without building it.
pub fn value_is(key: u64, round: u64, value: &[u8], len: usize) -> bool {
    let fill = (key as u8) ^ (round as u8) ^ 0x5a;
    value.len() == len.max(8)
        && value[..8] == key.wrapping_mul(31).wrapping_add(round).to_le_bytes()
        && value[8..].iter().all(|b| *b == fill)
}

/// The round a value was written in, read from its first 8 bytes.
pub fn round_in(key: u64, value: &[u8]) -> u64 {
    let head = value
        .get(..8)
        .map(|h| u64::from_le_bytes(h.try_into().unwrap()))
        .unwrap_or(0);
    head.wrapping_sub(key.wrapping_mul(31))
}

/// 64-bit finaliser (splitmix64), used to scatter ranks over the key space.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A scrambled Zipfian distribution over `0..n` (the YCSB generator of
/// Gray et al.): rank 0 is the most popular, and ranks are scattered over
/// the key space so the hot keys do not all sit in one shard.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// The distribution over `n` keys with skew `theta` (< 1).
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |count: u64| {
            (1..=count)
                .map(|i| 1.0 / (i as f64).powf(theta))
                .sum::<f64>()
        };
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// The popularity rank for a uniform draw `u` in `[0, 1)`.
    pub fn rank(&self, u: f64) -> u64 {
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64).min(self.n - 1)
    }

    /// The key for a uniform draw `u` in `[0, 1)`.
    pub fn key(&self, u: f64) -> u64 {
        mix64(self.rank(u)) % self.n
    }
}

/// Operations completed in untraced (`[0]`) and traced (`[1]`) windows.
#[derive(Debug, Default)]
pub struct WindowOps([AtomicU64; 2]);

impl WindowOps {
    /// Counts `n` operations of a window whose tracing state was `traced`.
    pub fn add(&self, traced: bool, n: u64) {
        self.0[traced as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// `(untraced, traced)` totals.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.0[0].load(Ordering::Relaxed),
            self.0[1].load(Ordering::Relaxed),
        )
    }
}

/// Operations and seconds of the untraced (`[0]`) and traced (`[1]`)
/// windows of a timed phase, and of the whole phase.
#[derive(Debug, Default, Clone)]
pub struct Windows {
    ops: [u64; 2],
    secs: [f64; 2],
    total_ops: u64,
    total_secs: f64,
}

impl Windows {
    /// Adds the windows of another phase.
    pub fn absorb(&mut self, other: Windows) {
        for i in 0..2 {
            self.ops[i] += other.ops[i];
            self.secs[i] += other.secs[i];
        }
        self.total_ops += other.total_ops;
        self.total_secs += other.total_secs;
    }

    /// Operations per second over the whole of the phases.
    pub fn rate(&self) -> f64 {
        self.total_ops as f64 / self.total_secs
    }

    /// Tracing overhead in percent: how much lower the operation rate was
    /// in traced windows than in untraced ones.
    pub fn overhead_pct(&self) -> f64 {
        let rate = |i: usize| self.ops[i] as f64 / self.secs[i];
        if self.ops[0] == 0 || self.secs[1] <= 0.0 {
            return 0.0;
        }
        (rate(0) - rate(1)) / rate(0) * 100.0
    }
}

/// Length of one traced or untraced window in a traced run.
const WINDOW: Duration = Duration::from_millis(100);
/// How often `sample` runs during a timed phase.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Drives a timed phase from the main thread until `done()` holds (or the
/// safety `deadline` passes): it counts the phase's time and the operations
/// counted in `ops`, and in a traced run it alternates untraced and traced
/// windows, adding up each kind's time and operations, and calls `sample`
/// every few milliseconds.
pub fn drive_phase(
    trace: bool,
    deadline: Instant,
    ops: &WindowOps,
    done: impl Fn() -> bool,
    mut sample: impl FnMut(),
) -> Windows {
    let mut windows = Windows::default();
    let start = Instant::now();
    let mut window_start = start;
    let mut counted = ops.totals();
    let all = |(untraced, traced): (u64, u64)| untraced + traced;
    let start_ops = all(counted);
    let mut on = false;
    spans::set_enabled(false);
    loop {
        let now = Instant::now();
        let finished = now >= deadline || done();
        if finished {
            windows.total_ops = all(ops.totals()) - start_ops;
            windows.total_secs = now.duration_since(start).as_secs_f64();
        }
        if trace && (finished || now.duration_since(window_start) >= WINDOW) {
            let totals = ops.totals();
            windows.ops[on as usize] += if on {
                totals.1 - counted.1
            } else {
                totals.0 - counted.0
            };
            windows.secs[on as usize] += now.duration_since(window_start).as_secs_f64();
            counted = totals;
            on = !on;
            spans::set_enabled(on);
            window_start = now;
        }
        if finished {
            break;
        }
        if trace {
            sample();
        }
        std::thread::sleep(SAMPLE_EVERY.min(deadline.saturating_duration_since(now)));
    }
    spans::set_enabled(false);
    windows
}

/// `n` stratified draws in `[0, 1)`: one uniform draw from each of `n`
/// equal slices, in a shuffled order. Range-scan start positions drawn
/// this way cover the key space evenly in every run.
pub fn stratified(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut slices: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        slices.swap(i, rng.gen_range(0..=i));
    }
    slices
        .into_iter()
        .map(|slice| (slice as f64 + rng.gen_range(0.0..1.0)) / n as f64)
        .collect()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_round() {
        let v = value_for(1234, 7, 128);
        assert_eq!(v.len(), 128);
        assert!(value_is(1234, 7, &v, 128));
        assert_eq!(round_in(1234, &v), 7);
        assert!(!value_is(1234, 6, &v, 128));
        assert!(!value_is(1235, 7, &v, 128));
        let mut torn = v.clone();
        torn[100] ^= 1;
        assert!(!value_is(1234, 7, &torn, 128));
    }

    #[test]
    fn window_rates_and_overhead() {
        let windows = Windows {
            ops: [1_000, 450],
            secs: [1.0, 0.5],
            total_ops: 1_450,
            total_secs: 1.45,
        };
        assert!((windows.overhead_pct() - 10.0).abs() < 1e-9);
        assert_eq!(Windows::default().overhead_pct(), 0.0);
        let mut both = windows.clone();
        both.absorb(windows);
        assert!((both.rate() - 1_000.0).abs() < 1e-9);
    }

    #[test]
    fn stratified_draws_cover_every_slice() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        let mut slices: Vec<usize> = stratified(&mut rng, 10)
            .iter()
            .map(|u| (u * 10.0) as usize)
            .collect();
        slices.sort_unstable();
        assert_eq!(slices, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.99);
        let mut hits = vec![0u32; 10_000];
        for i in 0..100_000u64 {
            let u = (mix64(i) >> 11) as f64 / (1u64 << 53) as f64;
            let key = z.key(u);
            assert!(key < 10_000);
            hits[key as usize] += 1;
        }
        let hottest = *hits.iter().max().unwrap();
        // Rank 0 of Zipf(0.99) over 10k keys draws roughly 10% of samples.
        assert!(hottest > 5_000, "hottest key drew {hottest}");
        assert_eq!(z.rank(0.0), 0);
    }
}
