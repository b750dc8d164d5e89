//! Seeded load generation: the order of the request inputs and the
//! open-loop arrival schedule are pure functions of the workload seed, and
//! open-loop latency is timed from each request's due time.

use std::time::Duration;

/// SplitMix64: a small, fast, seedable generator. The benchmark's own
/// inputs come from it so they do not depend on the program's RNG.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` on sub-stream `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        let mut g = SplitMix64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        g.next_u64();
        g
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates): the order in which a
/// run sends the test series.
pub fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut g = SplitMix64::new(seed, 0x1A9);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, (g.next_u64() % (i as u64 + 1)) as usize);
    }
    v
}

/// Due times (offsets from the start of the phase) of a Poisson arrival
/// process at `rate` per second, covering `window`.
pub fn poisson_schedule(seed: u64, rate: f64, window: Duration) -> Vec<Duration> {
    let mut g = SplitMix64::new(seed, 0xA77);
    let end = window.as_secs_f64();
    let mut t = 0.0f64;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // exponential inter-arrival gap; 1 - u lies in (0, 1]
        t += -(1.0 - g.unit()).ln() / rate;
        if t >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// Timing of one open-loop request, all offsets from the phase start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopTiming {
    /// When the schedule said to send it.
    pub due: Duration,
    /// When the sender actually sent it.
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
}

impl OpenLoopTiming {
    /// Latency as the user sees it: from the due time, so a stalled sender
    /// charges its delay to every request it held back.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the sender ran against the schedule.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_inputs_are_seeded() {
        let w = Duration::from_secs(1);
        assert_eq!(poisson_schedule(7, 4000.0, w), poisson_schedule(7, 4000.0, w));
        assert_ne!(poisson_schedule(7, 4000.0, w), poisson_schedule(8, 4000.0, w));
        assert_eq!(permutation(7, 960), permutation(7, 960));
        assert_ne!(permutation(7, 960), permutation(8, 960));
        let mut p = permutation(3, 960);
        p.sort_unstable();
        assert_eq!(p, (0..960).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_has_the_requested_rate() {
        let due = poisson_schedule(11, 4000.0, Duration::from_secs(5));
        // 20 000 expected arrivals; the Poisson sd is about 141
        assert!((19_400..20_600).contains(&due.len()), "{} arrivals", due.len());
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.last().unwrap() < &Duration::from_secs(5));
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let ms = Duration::from_millis;
        // on time: latency is the service time
        let on_time = OpenLoopTiming { due: ms(10), sent: ms(10), done: ms(12) };
        assert_eq!(on_time.latency(), ms(2));
        assert_eq!(on_time.lag(), ms(0));
        // a sender stalled 5 ms: the stall is part of the latency
        let late = OpenLoopTiming { due: ms(10), sent: ms(15), done: ms(17) };
        assert_eq!(late.latency(), ms(7));
        assert_eq!(late.lag(), ms(5));
    }
}
