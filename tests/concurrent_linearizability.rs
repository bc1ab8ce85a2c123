//! Concurrency integration tests: multi-threaded histories whose outcomes can
//! be checked without recording a full linearization — per-thread disjoint
//! key ranges, token-conservation under moves, and a counting argument for
//! same-key contention — with the background maintenance thread running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use speculation_friendly_tree::baselines::{AvlTree, RedBlackTree};
use speculation_friendly_tree::prelude::*;

fn maintenance_config() -> MaintenanceConfig {
    MaintenanceConfig {
        pass_delay: Duration::from_micros(20),
        ..MaintenanceConfig::default()
    }
}

#[test]
fn disjoint_ranges_are_preserved_under_concurrency_and_maintenance() {
    let stm = Stm::default_config();
    let tree = Arc::new(OptSpecFriendlyTree::new());
    let maintenance = tree.start_maintenance_with(stm.register(), maintenance_config());
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let mut handle = tree.register(stm.register());
            std::thread::spawn(move || {
                let base = t * 100_000;
                for i in 0..1_000u64 {
                    assert!(tree.insert(&mut handle, base + i, i));
                }
                for i in (0..1_000u64).step_by(3) {
                    assert!(tree.delete(&mut handle, base + i));
                }
                for i in 0..1_000u64 {
                    let expect = i % 3 != 0;
                    assert_eq!(
                        tree.contains(&mut handle, base + i),
                        expect,
                        "key {}",
                        base + i
                    );
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    maintenance.stop();
    tree.inspect().check_consistency().unwrap();
    let per_thread = 1_000 - 1_000usize.div_ceil(3);
    assert_eq!(tree.len_quiescent(), 4 * per_thread);
}

#[test]
fn same_key_contention_counts_add_up() {
    // All threads fight over a tiny key range; the number of successful
    // inserts minus successful deletes must equal the final size.
    let stm = Stm::default_config();
    let tree = Arc::new(OptSpecFriendlyTree::new());
    let maintenance = tree.start_maintenance_with(stm.register(), maintenance_config());
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let mut handle = tree.register(stm.register());
            std::thread::spawn(move || {
                let mut inserted = 0i64;
                let mut deleted = 0i64;
                let mut state = 0xabcdef ^ (t + 1);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..2_000 {
                    let key = rng() % 16;
                    if rng() % 2 == 0 {
                        if tree.insert(&mut handle, key, key) {
                            inserted += 1;
                        }
                    } else if tree.delete(&mut handle, key) {
                        deleted += 1;
                    }
                }
                (inserted, deleted)
            })
        })
        .collect();
    let (total_ins, total_del) = workers
        .into_iter()
        .map(|w| w.join().unwrap())
        .fold((0i64, 0i64), |(a, b), (i, d)| (a + i, b + d));
    maintenance.stop();
    tree.inspect().check_consistency().unwrap();
    assert_eq!(
        total_ins - total_del,
        tree.len_quiescent() as i64,
        "successful inserts minus deletes must equal the final size"
    );
}

#[test]
fn token_conservation_under_concurrent_moves() {
    let stm = Stm::default_config();
    let tree = Arc::new(SpecFriendlyTree::new());
    let maintenance = tree.start_maintenance_with(stm.register(), maintenance_config());
    {
        let mut handle = tree.register(stm.register());
        for slot in 0..32u64 {
            if slot % 2 == 0 {
                tree.insert(&mut handle, slot, slot);
            }
        }
    }
    // The counting walk reads plain pointers: park the rotator, which is
    // still rebalancing the ascending inserts, while it runs.
    let before = {
        let _paused = maintenance.pause();
        tree.len_quiescent()
    };
    let workers: Vec<_> = (0..3u64)
        .map(|t| {
            let tree = Arc::clone(&tree);
            let mut handle = tree.register(stm.register());
            std::thread::spawn(move || {
                let mut state = 77 ^ t.wrapping_mul(0x9e3779b9);
                let mut rng = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..1_500 {
                    let from = rng() % 32;
                    let to = rng() % 32;
                    tree.move_entry(&mut handle, from, to);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    maintenance.stop();
    assert_eq!(tree.len_quiescent(), before, "moves must conserve tokens");
    tree.inspect().check_consistency().unwrap();
}

/// Regression probe for the transient membership miss noted after PR 1: a
/// `contains` racing a rotation must never report `false` for a key that is
/// *proven present* (inserted before the probe started and never deleted).
///
/// One prober (the test thread) loops over anchor keys while a single
/// mutator churns the interleaved non-anchor keys with the maintenance
/// thread rotating underneath — 3 threads total, sized for a 1-core host.
/// Any false negative fails immediately.
fn probe_anchored_keys<M>(tree: Arc<M>, stm: &Arc<Stm>, mutator_ops: u64)
where
    M: TxMap + Send + Sync + 'static,
    M::Handle: Send + 'static,
{
    // Anchors occupy every 8th key; the mutator owns the rest.
    let anchors: Vec<u64> = (0..512u64).step_by(8).collect();
    let mut prober = tree.register(stm.register());
    for &k in &anchors {
        assert!(tree.insert(&mut prober, k, k));
    }
    let done = Arc::new(AtomicBool::new(false));
    let mutator = {
        let tree = Arc::clone(&tree);
        let done = Arc::clone(&done);
        let mut handle = tree.register(stm.register());
        std::thread::spawn(move || {
            let mut state = 0x0dd5_eed5_u64;
            let mut rng = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for _ in 0..mutator_ops {
                let key = {
                    let candidate = rng() % 512;
                    // Steer clear of the anchors.
                    if candidate % 8 == 0 {
                        candidate + 1
                    } else {
                        candidate
                    }
                };
                if rng() % 2 == 0 {
                    tree.insert(&mut handle, key, key);
                } else {
                    tree.delete(&mut handle, key);
                }
            }
            done.store(true, Ordering::Relaxed);
        })
    };
    // The prober races the mutator and the rotator until the churn ends,
    // then performs one final full sweep.
    let mut sweeps = 0u64;
    while !done.load(Ordering::Relaxed) || sweeps == 0 {
        for &k in &anchors {
            assert!(
                tree.contains(&mut prober, k),
                "false negative: anchored key {k} reported absent (sweep {sweeps})"
            );
        }
        sweeps += 1;
    }
    mutator.join().unwrap();
    for &k in &anchors {
        assert!(tree.contains(&mut prober, k), "post-churn miss of {k}");
    }
}

#[test]
fn membership_probe_never_misses_anchored_keys_during_rotations() {
    // Clone-based rotations (the optimized tree) are where the suspected
    // probe-vs-rotation race lives; the portable tree's in-place rotations
    // get the same treatment.
    {
        let stm = Stm::default_config();
        let tree = Arc::new(OptSpecFriendlyTree::new());
        let maintenance = tree.start_maintenance_with(
            stm.register(),
            MaintenanceConfig {
                pass_delay: Duration::from_micros(10),
                ..MaintenanceConfig::default()
            },
        );
        probe_anchored_keys(Arc::clone(&tree), &stm, 4_000);
        maintenance.stop();
        tree.inspect().check_consistency().unwrap();
    }
    {
        let stm = Stm::default_config();
        let tree = Arc::new(SpecFriendlyTree::new());
        let maintenance = tree.start_maintenance_with(
            stm.register(),
            MaintenanceConfig {
                pass_delay: Duration::from_micros(10),
                ..MaintenanceConfig::default()
            },
        );
        probe_anchored_keys(Arc::clone(&tree), &stm, 4_000);
        maintenance.stop();
        tree.inspect().check_consistency().unwrap();
    }
}

#[test]
fn baseline_trees_survive_same_key_contention() {
    for which in 0..2 {
        let stm = Stm::default_config();
        let rb = Arc::new(RedBlackTree::new());
        let avl = Arc::new(AvlTree::new());
        let workers: Vec<_> = (0..3u64)
            .map(|t| {
                let rb = Arc::clone(&rb);
                let avl = Arc::clone(&avl);
                let mut ctx = stm.register();
                std::thread::spawn(move || {
                    let mut net = 0i64;
                    let mut state = 0x1234 ^ (t + 1);
                    let mut rng = move || {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        state
                    };
                    for _ in 0..1_000 {
                        let key = rng() % 24;
                        let insert = rng() % 2 == 0;
                        let changed = if which == 0 {
                            if insert {
                                rb.insert(&mut ctx, key, key)
                            } else {
                                rb.delete(&mut ctx, key)
                            }
                        } else if insert {
                            avl.insert(&mut ctx, key, key)
                        } else {
                            avl.delete(&mut ctx, key)
                        };
                        if changed {
                            net += if insert { 1 } else { -1 };
                        }
                    }
                    net
                })
            })
            .collect();
        let net: i64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        if which == 0 {
            rb.check_invariants().unwrap();
            assert_eq!(net, rb.len_quiescent() as i64);
        } else {
            avl.check_invariants().unwrap();
            assert_eq!(net, avl.len_quiescent() as i64);
        }
    }
}
