//! Percentiles by the nearest-rank rule, and the timing of a timed phase.

/// Percentiles the benchmark may report, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile needs beyond it before the benchmark reports it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples:
/// `ceil(p/100 · n)`, clamped to `1..=n`. The small slack keeps a product
/// such as `99.9 · 10 000` from rounding one rank up.
pub fn rank(p: f64, n: usize) -> usize {
    assert!(n > 0, "no samples");
    let r = (p * n as f64 / 100.0 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Nearest-rank percentile `p` of ascending `sorted` samples: the smallest
/// sample with at least `p`% of all samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(p, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest rank of `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    n - rank(p, n)
}

/// The highest percentile of [`LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it, if any does.
pub fn highest_supported(n: usize) -> Option<f64> {
    if n == 0 {
        return None;
    }
    LADDER.into_iter().find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Chunks a timed phase is cut into for [`timing`], at most, and the ops
/// the quiet pool must hold: enough for [`MIN_BEYOND`] beyond its p90.
const MAX_CHUNKS: usize = 30;
const MIN_POOL: usize = 100;

/// Ops per chunk for a phase that completed `ops` ops whose mix repeats
/// every `period` ops: a multiple of `period`, so every chunk holds the
/// same mix, and large enough for at most [`MAX_CHUNKS`] chunks.
pub fn chunk_len(ops: usize, period: usize) -> usize {
    let period = period.max(1);
    ops.div_ceil(MAX_CHUNKS).max(1).div_ceil(period) * period
}

/// Latency and throughput of one timed phase, taken over its quiet pool.
#[derive(Clone, Debug, PartialEq)]
pub struct Timing {
    pub p50: f64,
    pub p90: f64,
    pub throughput: f64,
    /// Ops per chunk.
    pub chunk_len: usize,
    /// Each whole chunk's p50, in time order.
    pub chunk_p50s: Vec<f64>,
    /// Chunks in the quiet pool.
    pub pooled: usize,
}

/// Cuts a timed phase into chunks of [`chunk_len`] consecutive ops by end
/// time (`done` holds `(end_s, latency_ms)` per completed op, `end_s` from
/// the phase's start; ops past the last whole chunk are left out). A
/// chunk lasts from the end of the previous chunk's last op to the end of
/// its own. The quiet pool is the chunks of lowest p50, taken in that
/// order until they hold [`MIN_POOL`] ops; p50, p90 and ops/s are those of
/// the pool. The host's other tenants only ever slow a chunk down, so the
/// quietest chunks measure the program's own cost, and stay put when
/// interference covers most of a run.
pub fn timing(done: &[(f64, f64)], period: usize) -> Timing {
    let mut ops = done.to_vec();
    ops.sort_by(|a, b| a.0.total_cmp(&b.0));
    let len = chunk_len(ops.len(), period).min(ops.len()).max(1);
    let mut chunks = Vec::new();
    let mut from = 0.0;
    for chunk in ops.chunks_exact(len) {
        let to = chunk[len - 1].0;
        let latencies = sorted(&chunk.iter().map(|o| o.1).collect::<Vec<_>>());
        chunks.push((percentile(&latencies, 50.0), to - from, latencies));
        from = to;
    }
    let chunk_p50s: Vec<f64> = chunks.iter().map(|c| c.0).collect();
    let mut order: Vec<usize> = (0..chunks.len()).collect();
    order.sort_by(|&a, &b| chunks[a].0.total_cmp(&chunks[b].0));
    let (mut pool, mut seconds, mut pooled) = (Vec::new(), 0.0, 0);
    for i in order {
        if pool.len() >= MIN_POOL {
            break;
        }
        pool.extend_from_slice(&chunks[i].2);
        seconds += chunks[i].1;
        pooled += 1;
    }
    if pool.is_empty() {
        return Timing {
            p50: 0.0,
            p90: 0.0,
            throughput: 0.0,
            chunk_len: len,
            chunk_p50s,
            pooled,
        };
    }
    let pool = sorted(&pool);
    Timing {
        p50: percentile(&pool, 50.0),
        p90: percentile(&pool, 90.0),
        throughput: pool.len() as f64 / seconds,
        chunk_len: len,
        chunk_p50s,
        pooled,
    }
}

/// Sample count, samples beyond p90, the highest supported percentile and
/// the deciles of ascending `sorted` latencies, for the printed notes.
pub fn describe(sorted: &[f64]) -> String {
    let n = sorted.len();
    if n == 0 {
        return "latency samples: 0".into();
    }
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", percentile(sorted, f64::from(d) * 10.0)))
        .collect();
    format!(
        "latency samples: {n}, beyond p90: {}, highest supported percentile: {}, \
         deciles (ms): {}",
        beyond(90.0, n),
        highest_supported(n).map_or("none".into(), |p| format!("p{p}")),
        deciles.join(" ")
    )
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median by nearest rank (0 for no samples).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(&sorted(samples), 50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_an_actual_sample() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0, "rank clamps to the first sample");
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn rank_is_the_ceiling_of_p_times_n() {
        assert_eq!(rank(90.0, 100), 90);
        assert_eq!(rank(90.0, 101), 91);
        assert_eq!(rank(99.9, 1000), 999);
        assert_eq!(rank(50.0, 3), 2);
    }

    #[test]
    fn highest_supported_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None, "p50 of 19 leaves 9 beyond");
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(40), Some(75.0));
        assert_eq!(highest_supported(99), Some(75.0), "p90 of 99 leaves 9");
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(beyond(90.0, 100), 10);
    }

    #[test]
    fn timing_pools_the_quietest_chunks() {
        // 3000 ops at 1 ms, 10 per ms of wall time, except that ops 1000
        // to 2999 ran on a host twice as slow.
        let mut done = Vec::new();
        let mut end = 0.0;
        for i in 0..3000 {
            let latency = if i < 1000 { 1.0 } else { 2.0 };
            end += latency / 10_000.0;
            done.push((end, latency));
        }
        let t = timing(&done, 1);
        assert_eq!(t.chunk_len, 100);
        assert_eq!(t.chunk_p50s.len(), 30);
        assert_eq!(t.pooled, 1, "one chunk holds the 100 ops the pool needs");
        assert_eq!(t.p50, 1.0, "the slow two thirds do not move it");
        assert_eq!(t.p90, 1.0);
        assert!((t.throughput - 10_000.0).abs() < 1e-6, "{}", t.throughput);
    }

    #[test]
    fn timing_keeps_the_mix_in_every_chunk_and_pools_enough_ops() {
        // Three templates of 1, 2 and 3 ms in turn: every chunk of a
        // multiple of three ops has p50 2 ms. 90 ops make 30 chunks of 3,
        // fewer than the pool's 100 ops, so every chunk is pooled.
        let done: Vec<(f64, f64)> = (0..90)
            .map(|i| (f64::from(i + 1), f64::from(i % 3 + 1)))
            .collect();
        let t = timing(&done, 3);
        assert_eq!(t.chunk_len, 3);
        assert!(t.chunk_p50s.iter().all(|&p| p == 2.0));
        assert_eq!(t.pooled, 30);
        assert_eq!((t.p50, t.p90), (2.0, 3.0));
        assert!((t.throughput - 1.0).abs() < 1e-9);
        assert_eq!(timing(&[], 3).throughput, 0.0);
    }

    #[test]
    fn chunk_len_is_a_multiple_of_the_period() {
        assert_eq!(chunk_len(0, 1), 1);
        assert_eq!(chunk_len(3000, 1), 100);
        assert_eq!(chunk_len(300, 9), 18);
        assert_eq!(chunk_len(35_000, 1024), 2048);
        assert_eq!(chunk_len(5, 9), 9, "capped at the op count by timing");
    }

    #[test]
    fn median_and_mean_of_unsorted_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.0);
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }
}
