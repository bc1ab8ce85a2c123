//! Seeded operation streams and the per-client oracle.
//!
//! Client `c` of a two-client run updates only keys `k` with `k % 2 == c`
//! (its *stripe*). Nobody else writes that stripe, so the client's model of
//! it is exact at every point of its own stream: every `contains` on the
//! stripe, every update and the stripe part of every scan has a known
//! result, computed here before timing starts.
//!
//! A stream is a *cycle*: its first half is drawn forward from the initial
//! state, its second half undoes the first half's updates in reverse order
//! (interleaved with fresh reads), so the stripe is back at its initial
//! state after every full cycle and a client can replay the cycle for as
//! many operations as a run needs without storing them all.

use std::sync::Arc;

/// Number of closed-loop clients (one per core of the 2-core reference host).
pub const CLIENTS: usize = 2;
/// Key span of a range scan: about 100 live keys at the workloads' 1/2 density.
pub const SCAN_SPAN: u32 = 200;

/// SplitMix64: small, fast and good enough for key generation.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Key distribution over `[0, range)`.
#[derive(Clone)]
pub enum Dist {
    Uniform,
    /// Zipf over ranks. The key of a rank comes from a fixed bijection that
    /// scatters the hot ranks over the key space, so every seed sees the
    /// same hot keys and only the draws change.
    Zipf {
        cdf: Arc<Vec<f64>>,
    },
}

/// Odd multiplier of the rank-to-key bijection (any odd number permutes
/// a power-of-two range).
const SCATTER: u64 = 0x9e37_79b9;

impl Dist {
    /// Zipf with exponent `theta` over a power-of-two `range`.
    pub fn zipf(range: u32, theta: f64) -> Dist {
        assert!(
            range.is_power_of_two(),
            "the rank scatter needs a power-of-two range"
        );
        let mut cdf = Vec::with_capacity(range as usize);
        let mut sum = 0.0;
        for rank in 1..=range {
            sum += 1.0 / (rank as f64).powf(theta);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Dist::Zipf { cdf: Arc::new(cdf) }
    }

    pub fn draw(&self, rng: &mut Rng, range: u32) -> u32 {
        match self {
            Dist::Uniform => rng.below(range as u64) as u32,
            Dist::Zipf { cdf } => {
                let u = rng.unit();
                let rank = cdf.partition_point(|&c| c < u).min(cdf.len() - 1) as u64;
                (rank.wrapping_mul(SCATTER) & (range as u64 - 1)) as u32
            }
        }
    }
}

pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Operation mix in parts per 10 000.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    pub contains: u32,
    pub update: u32,
    pub scan: u32,
    pub moves: u32,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    Contains,
    Insert,
    Delete,
    Move,
    Scan,
}

/// `Op::expect` of a `contains` on the other client's stripe.
pub const UNCHECKED: u8 = 2;

/// One pre-generated operation.
///
/// * `Contains`: key `a`; `expect` is 0/1, or [`UNCHECKED`].
/// * `Insert`: key `a`, value `b`. `Delete`: key `a`, its current value `b`.
/// * `Move`: from `a` to `b`. Updates and moves always expect `true`.
/// * `Scan`: keys `a ..= a + SCAN_SPAN - 1`; `b` indexes [`Stream::scans`].
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub kind: Kind,
    pub expect: u8,
    pub a: u32,
    pub b: u32,
}

/// Expected own-stripe part of a scan result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanExpect {
    pub count: u32,
    pub fingerprint: u64,
}

/// Order-sensitive fingerprint of `(key, value)` pairs.
pub fn fold_fingerprint(fp: u64, key: u64, value: u64) -> u64 {
    const P: u64 = 0x0000_0100_0000_01b3;
    ((fp ^ key).wrapping_mul(P) ^ value).wrapping_mul(P)
}

pub const FINGERPRINT_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Exact model of one client's stripe: `vals[slot]` is the value of key
/// `slot * 2 + stripe`, 0 when absent (stored values are never 0).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Model {
    pub stripe: u32,
    pub vals: Vec<u32>,
    /// Number of present keys.
    live: usize,
}

impl Model {
    fn slot(&self, key: u32) -> usize {
        debug_assert_eq!(key % CLIENTS as u32, self.stripe);
        (key / CLIENTS as u32) as usize
    }

    pub fn value(&self, key: u32) -> u32 {
        self.vals[self.slot(key)]
    }

    pub fn apply(&mut self, op: &Op) {
        match op.kind {
            Kind::Insert => {
                let s = self.slot(op.a);
                self.vals[s] = op.b;
                self.live += 1;
            }
            Kind::Delete => {
                let s = self.slot(op.a);
                self.vals[s] = 0;
                self.live -= 1;
            }
            Kind::Move => {
                let (from, to) = (self.slot(op.a), self.slot(op.b));
                self.vals[to] = self.vals[from];
                self.vals[from] = 0;
            }
            Kind::Contains | Kind::Scan => {}
        }
    }

    pub fn entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let stripe = self.stripe;
        self.vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0)
            .map(move |(slot, &v)| ((slot as u64) * CLIENTS as u64 + stripe as u64, v as u64))
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn scan_expect(&self, lo: u32, range: u32) -> ScanExpect {
        let hi = (lo + SCAN_SPAN - 1).min(range - 1);
        let mut out = ScanExpect {
            count: 0,
            fingerprint: FINGERPRINT_SEED,
        };
        for key in lo..=hi {
            if key % CLIENTS as u32 == self.stripe {
                let v = self.value(key);
                if v != 0 {
                    out.count += 1;
                    out.fingerprint = fold_fingerprint(out.fingerprint, key as u64, v as u64);
                }
            }
        }
        out
    }
}

/// The value a key gets when it is first inserted (never 0).
pub fn initial_value(key: u32) -> u32 {
    key + 1
}

/// One client's cyclic stream.
pub struct Stream {
    pub ops: Vec<Op>,
    pub scans: Vec<ScanExpect>,
}

impl Stream {
    /// Model state after the first `n` operations, starting from `start`.
    pub fn state_after(&self, start: &Model, n: u64) -> Model {
        let mut model = start.clone();
        let cut = (n % self.ops.len() as u64) as usize;
        for op in &self.ops[..cut] {
            model.apply(op);
        }
        model
    }

    /// Operations of each kind in the first `n` operations.
    pub fn kind_counts(&self, n: u64) -> [u64; 5] {
        let len = self.ops.len() as u64;
        let mut whole = [0u64; 5];
        for op in &self.ops {
            whole[op.kind as usize] += 1;
        }
        let mut out = whole.map(|c| c * (n / len));
        for op in &self.ops[..(n % len) as usize] {
            out[op.kind as usize] += 1;
        }
        out
    }
}

/// The workload's static shape, as far as generation is concerned.
#[derive(Clone)]
pub struct Shape {
    /// Keys present at the start (split evenly between the stripes).
    pub keys: u32,
    /// Key space `[0, range)`.
    pub range: u32,
    pub mix: Mix,
    pub dist: Dist,
}

/// Draw a key of `stripe` satisfying `want` from `dist`, falling back to
/// uniform draws when the distribution keeps hitting keys that do not.
fn draw_stripe(
    dist: &Dist,
    rng: &mut Rng,
    range: u32,
    stripe: u32,
    mut want: impl FnMut(u32) -> bool,
) -> u32 {
    for _ in 0..64 {
        let key = dist.draw(rng, range);
        if key % CLIENTS as u32 == stripe && want(key) {
            return key;
        }
    }
    loop {
        let key = rng.below(range as u64) as u32;
        if key % CLIENTS as u32 == stripe && want(key) {
            return key;
        }
    }
}

/// Initial state of client `stripe`: a random half-or-so of its stripe,
/// plus the order in which the client inserts those keys.
pub fn initial(shape: &Shape, seed: u64, stripe: u32) -> (Model, Vec<u32>) {
    let mut rng = Rng::new(seed ^ 0x5eed_0000 ^ ((stripe as u64 + 1) << 40));
    let slots = shape.range / CLIENTS as u32;
    let mut keys: Vec<u32> = (0..slots).map(|s| s * CLIENTS as u32 + stripe).collect();
    shuffle(&mut keys, &mut rng);
    keys.truncate((shape.keys / CLIENTS as u32) as usize);
    let mut model = Model {
        stripe,
        vals: vec![0; slots as usize],
        live: 0,
    };
    for &key in &keys {
        model.apply(&Op {
            kind: Kind::Insert,
            expect: 1,
            a: key,
            b: initial_value(key),
        });
    }
    (model, keys)
}

/// Generate client `stripe`'s cycle of `len` operations (rounded up to an
/// even count) starting from `start`.
pub fn cycle(shape: &Shape, seed: u64, start: &Model, len: u64) -> Stream {
    let stripe = start.stripe;
    let mut rng = Rng::new(seed ^ 0x0c1c_1e00 ^ ((stripe as u64 + 1) << 44));
    let half = len.div_ceil(2).max(1) as usize;
    let mut model = start.clone();
    let mut stream = Stream {
        ops: Vec::with_capacity(2 * half),
        scans: Vec::new(),
    };
    let range = shape.range;
    let mix = shape.mix;
    let total = mix.contains + mix.update + mix.scan + mix.moves;
    let mut insert_next = true;
    let read = |rng: &mut Rng, model: &Model, stream: &mut Stream, scan: bool| {
        if scan {
            let lo = shape
                .dist
                .draw(rng, range)
                .min(range.saturating_sub(SCAN_SPAN));
            stream.scans.push(model.scan_expect(lo, range));
            Op {
                kind: Kind::Scan,
                expect: 1,
                a: lo,
                b: (stream.scans.len() - 1) as u32,
            }
        } else {
            let key = shape.dist.draw(rng, range);
            let expect = if key % CLIENTS as u32 == stripe {
                (model.value(key) != 0) as u8
            } else {
                UNCHECKED
            };
            Op {
                kind: Kind::Contains,
                expect,
                a: key,
                b: 0,
            }
        }
    };
    for _ in 0..half {
        let pick = rng.below(total as u64) as u32;
        let op = if pick < mix.contains {
            read(&mut rng, &model, &mut stream, false)
        } else if pick < mix.contains + mix.scan {
            read(&mut rng, &model, &mut stream, true)
        } else if pick < mix.contains + mix.scan + mix.moves && !model.is_empty() {
            let from = draw_stripe(&shape.dist, &mut rng, range, stripe, |k| {
                model.value(k) != 0
            });
            let to = draw_stripe(&shape.dist, &mut rng, range, stripe, |k| {
                model.value(k) == 0
            });
            Op {
                kind: Kind::Move,
                expect: 1,
                a: from,
                b: to,
            }
        } else if (insert_next || model.is_empty()) && model.len() < model.vals.len() {
            insert_next = false;
            let key = draw_stripe(&shape.dist, &mut rng, range, stripe, |k| {
                model.value(k) == 0
            });
            Op {
                kind: Kind::Insert,
                expect: 1,
                a: key,
                b: initial_value(key),
            }
        } else {
            insert_next = true;
            let key = draw_stripe(&shape.dist, &mut rng, range, stripe, |k| {
                model.value(k) != 0
            });
            Op {
                kind: Kind::Delete,
                expect: 1,
                a: key,
                b: model.value(key),
            }
        };
        model.apply(&op);
        stream.ops.push(op);
    }
    for j in (0..half).rev() {
        let fwd = stream.ops[j];
        let op = match fwd.kind {
            Kind::Insert => Op {
                kind: Kind::Delete,
                ..fwd
            },
            Kind::Delete => Op {
                kind: Kind::Insert,
                ..fwd
            },
            Kind::Move => Op {
                a: fwd.b,
                b: fwd.a,
                ..fwd
            },
            Kind::Contains => read(&mut rng, &model, &mut stream, false),
            Kind::Scan => read(&mut rng, &model, &mut stream, true),
        };
        model.apply(&op);
        stream.ops.push(op);
    }
    debug_assert_eq!(&model, start, "a full cycle must restore the start state");
    stream
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(dist: Dist) -> Shape {
        Shape {
            keys: 256,
            range: 512,
            mix: Mix {
                contains: 5000,
                update: 4000,
                scan: 500,
                moves: 500,
            },
            dist,
        }
    }

    #[test]
    fn cycle_restores_start_and_every_update_is_effective() {
        for dist in [Dist::Uniform, Dist::zipf(512, 0.99)] {
            let shape = shape(dist);
            for stripe in 0..CLIENTS as u32 {
                let (start, order) = initial(&shape, 42, stripe);
                assert_eq!(order.len(), 128);
                let stream = cycle(&shape, 42, &start, 1000);
                let mut model = start.clone();
                for op in &stream.ops {
                    match op.kind {
                        Kind::Insert => assert_eq!(model.value(op.a), 0),
                        Kind::Delete => assert_eq!(model.value(op.a), op.b),
                        Kind::Move => {
                            assert_ne!(model.value(op.a), 0);
                            assert_eq!(model.value(op.b), 0);
                        }
                        _ => {}
                    }
                    model.apply(op);
                }
                assert_eq!(model, start);
                assert_eq!(stream.state_after(&start, 1000), start);
            }
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let shape = shape(Dist::Uniform);
        let (start, _) = initial(&shape, 9, 1);
        let a = cycle(&shape, 9, &start, 64);
        let b = cycle(&shape, 9, &start, 64);
        let keys = |s: &Stream| s.ops.iter().map(|o| (o.kind, o.a, o.b)).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b));
        let c = cycle(&shape, 10, &start, 64);
        assert_ne!(keys(&a), keys(&c));
    }
}
