//! The host-speed gauge: a frozen, self-contained miniature of the fig1
//! workload, timed in short slices between the workload's own windows.
//!
//! The reference host runs in speed phases that last minutes and slow
//! the same loop by up to 40% (see `perfbench/README.md`). A time from
//! one run is therefore a product of the code's speed and the host's
//! phase. The gauge measures the phase alone: its code lives in this
//! file and depends on no crate of the repository, so a change to the
//! repository's code never moves it, while the host moves it the way it
//! moves the workload, because it does the same kind of work
//! (lean-consensus steps over race arrays, an implicit-heap event queue
//! re-keyed on every event, a xoshiro256++ noise draw per step, a
//! memory reset per trial).
//!
//! Do not tune or "optimise" this file: every change to it rescales all
//! reported times, and comparisons across such a change are void.

use std::hint::black_box;
use std::time::Instant;

/// Processes in a gauge trial, as in `fig1-n100`.
const N: usize = 100;

/// Gauge trials per second at nominal host speed: about the gauge's
/// median rate on the reference host (2-vCPU Xeon guest) in its fast
/// phase, where a trial runs about 3,000 events. Reported times are
/// scaled to this speed.
pub const NOMINAL_TRIALS_PER_S: f64 = 6_200.0;

/// xoshiro256++, seeded through SplitMix64.
struct Rng([u64; 4]);

impl Rng {
    fn new(mut seed: u64) -> Self {
        let mut s = [0u64; 4];
        for w in &mut s {
            seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *w = z ^ (z >> 31);
        }
        Rng(s)
    }

    fn next(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform on [0, 2).
    fn noise(&mut self) -> f64 {
        (self.next() >> 11) as f64 * (2.0 / (1u64 << 53) as f64)
    }
}

/// One process of the miniature lean consensus.
#[derive(Clone, Copy)]
struct Proc {
    pref: usize,
    round: usize,
    phase: u8,
    a0: bool,
}

/// The gauge: process states, race arrays and an implicit binary
/// min-heap of `(time, pid)`, reused across trials.
pub struct Gauge {
    procs: Vec<Proc>,
    race: [Vec<u8>; 2],
    heap: Vec<(f64, u32)>,
    rng: Rng,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge {
            procs: Vec::with_capacity(N),
            race: [Vec::new(), Vec::new()],
            heap: Vec::with_capacity(N),
            rng: Rng::new(0x6A09_E667_F3BC_C908),
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let h = &mut self.heap;
        loop {
            let l = 2 * i + 1;
            if l >= h.len() {
                return;
            }
            let c = if l + 1 < h.len() && h[l + 1].0 < h[l].0 {
                l + 1
            } else {
                l
            };
            if h[c].0 >= h[i].0 {
                return;
            }
            h.swap(i, c);
            i = c;
        }
    }

    fn read(&mut self, side: usize, round: usize) -> bool {
        self.race[side].get(round).is_some_and(|&x| x != 0)
    }

    /// One trial to the first decision; returns the events it ran.
    pub fn trial(&mut self) -> u64 {
        self.procs.clear();
        self.procs.extend((0..N).map(|p| Proc {
            pref: usize::from(p >= N / 2),
            round: 1,
            phase: 0,
            a0: false,
        }));
        for side in &mut self.race {
            side.clear();
            side.resize(64, 0);
            side[0] = 1;
        }
        self.heap.clear();
        for p in 0..N {
            let t = self.rng.noise();
            self.heap.push((t, p as u32));
        }
        for i in (0..N / 2).rev() {
            self.sift_down(i);
        }
        let mut events = 0u64;
        loop {
            events += 1;
            let (now, pid) = self.heap[0];
            let mut p = self.procs[pid as usize];
            match p.phase {
                0 => {
                    p.a0 = self.read(0, p.round);
                    p.phase = 1;
                }
                1 => {
                    let a1 = self.read(1, p.round);
                    if p.a0 != a1 {
                        p.pref = usize::from(a1);
                    }
                    p.phase = 2;
                }
                2 => {
                    let side = &mut self.race[p.pref];
                    if side.len() <= p.round {
                        side.resize(2 * p.round, 0);
                    }
                    side[p.round] = 1;
                    p.phase = 3;
                }
                _ => {
                    if !self.read(1 - p.pref, p.round - 1) {
                        return events;
                    }
                    p.round += 1;
                    p.phase = 0;
                }
            }
            self.procs[pid as usize] = p;
            self.heap[0].0 = now + 1.0 + self.rng.noise();
            self.sift_down(0);
        }
    }

    /// Runs trials for about `secs` seconds; returns trials per second.
    pub fn rate(&mut self, secs: f64) -> f64 {
        let start = Instant::now();
        let mut trials = 0u64;
        loop {
            black_box(self.trial());
            trials += 1;
            let el = start.elapsed().as_secs_f64();
            if el >= secs {
                return trials as f64 / el;
            }
        }
    }
}
