//! Host-speed reference: a fixed kernel, owned by the benchmark, timed
//! between the cells so that their times can be reported in reference
//! seconds.
//!
//! On a shared machine the same binary runs up to 1.8× slower for
//! seconds to minutes at a time (other tenants contend for the core's
//! caches and memory), which no estimator over one run's samples
//! removes. The kernel slows down with the host: its wall time, divided
//! by [`REF_KERNEL_S`], is the host's *slowdown* at that moment. It runs
//! on the thread that runs the cells, between them, while nothing else
//! of the benchmark runs.
//!
//! The simulator slows down more than the kernel: on the reference host
//! its time grows about as the slowdown to the power [`SENSITIVITY`].
//! A wall time divided by [`factor`] of the slowdown around it is the
//! time the operation would have taken at the reference speed, its time
//! in *reference seconds*. The kernel does not depend on the simulator
//! crates, so a change to them moves the reference times and not the
//! slowdown.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Keys the kernel works on.
const KEYS: usize = 20_000;
/// Seconds of one kernel run on the reference host (2-vCPU KVM guest,
/// Intel Xeon at 2.0 GHz, in its fast state). Any fixed value works: it
/// only sets the scale of the reported times.
pub const REF_KERNEL_S: f64 = 4.0e-3;
/// How much more than the kernel the simulator slows down, as an
/// exponent. Fitted on the reference host over 70 passes of the
/// `paper8` cells (two 100–150 s series): dividing each cell's time by
/// the slowdown to this power left the least spread between passes
/// (IQR/median of a pass's time: raw 0.16–0.19, power 1 0.07–0.09,
/// power 1.5 0.05–0.06, power 2 0.07–0.08).
pub const SENSITIVITY: f64 = 1.5;

/// What a wall time measured at `slowdown` is divided by to give
/// reference seconds.
pub fn factor(slowdown: f64) -> f64 {
    slowdown.powf(SENSITIVITY)
}

/// The kernel's work: hash-map counting and lookups, ordered-map
/// inserts, range queries and removals, and a sort, over the same
/// pseudo-random keys. Of the kernels tried (random read-modify-writes
/// over an L2- or L3-sized table, a binary heap, these three apart),
/// these tracked the simulator's slowdown most closely.
fn kernel(keys: &[u64]) -> u64 {
    let mut acc = 0u64;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for &k in keys {
        *counts.entry(k).or_insert(0) += 1;
    }
    for &k in keys {
        acc += counts.get(&(k ^ 1)).copied().unwrap_or(0);
    }
    let mut ordered = BTreeMap::new();
    for &k in &keys[..KEYS / 2] {
        ordered.insert(k, k);
    }
    for k in keys[..KEYS / 2].iter().step_by(2) {
        if let Some((_, v)) = ordered.range(*k..).next() {
            acc = acc.wrapping_add(*v);
        }
        ordered.remove(k);
    }
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    acc ^ sorted[KEYS / 2]
}

/// The kernel's keys and the slowdowns it has measured.
pub struct HostSpeed {
    keys: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        Self::new()
    }
}

impl HostSpeed {
    pub fn new() -> HostSpeed {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let keys = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 100_000
            })
            .collect();
        HostSpeed {
            keys,
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and returns (and records) the slowdown.
    pub fn sample(&mut self) -> f64 {
        let t0 = Instant::now();
        black_box(kernel(black_box(&self.keys)));
        let s = t0.elapsed().as_secs_f64() / REF_KERNEL_S;
        self.samples.push(s);
        s
    }

    /// Every slowdown measured so far.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_measures_a_positive_slowdown() {
        let mut h = HostSpeed::new();
        let s = h.sample();
        assert!(s > 0.0 && s.is_finite(), "{s}");
        assert_eq!(h.samples(), [s]);
        assert_eq!(factor(4.0), 8.0);
    }
}
