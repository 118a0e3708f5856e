//! Small numeric helpers: order statistics, shard schedules, digests.

/// Median (mean of the middle pair for an even count). `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`: the smallest sample with
/// at least `p` of the samples at or below it. `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank `p` percentile.
pub fn beyond(count: usize, p: f64) -> usize {
    count - ((p * count as f64).ceil() as usize).clamp(1, count.max(1))
}

/// Makespan of a greedy list schedule: each task, in the given order,
/// goes to the worker that frees up first.
pub fn list_schedule(tasks: &[f64], workers: usize) -> f64 {
    let mut free = vec![0.0f64; workers.max(1)];
    for &t in tasks {
        let w = (0..free.len())
            .min_by(|&a, &b| free[a].total_cmp(&free[b]))
            .expect("at least one worker");
        free[w] += t;
    }
    free.into_iter().fold(0.0, f64::max)
}

/// Makespan of the largest-processing-time-first schedule.
pub fn lpt_schedule(tasks: &[f64], workers: usize) -> f64 {
    let mut sorted = tasks.to_vec();
    sorted.sort_by(|a, b| b.total_cmp(a));
    list_schedule(&sorted, workers)
}

/// Streaming FNV-1a over formatted text, so a digest of a large
/// `Debug` rendering never materializes the string.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
        assert_eq!(percentile(&[3.0], 0.9), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn schedules() {
        // Enumeration order strands the long task last; LPT starts it first.
        let tasks = [1.0, 1.0, 1.0, 1.0, 4.0];
        assert_eq!(list_schedule(&tasks, 2), 6.0);
        assert_eq!(lpt_schedule(&tasks, 2), 4.0);
        assert_eq!(list_schedule(&tasks, 1), 8.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        use std::fmt::Write;
        let mut d = Digest::default();
        d.write_str("a").unwrap();
        assert_eq!(d.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
