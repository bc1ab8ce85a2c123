//! The vacation client driver: the transaction mix of STAMP's `client.c`
//! (make-reservation, delete-customer, update-tables) executed by N client
//! threads against a [`Manager`], with the low/high-contention presets and
//! the 1×/8×/16× transaction-count scaling used in Figure 6.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sf_stm::{StatsSnapshot, Stm};

use crate::directory::DirectoryMap;
use crate::manager::{Manager, ReservationKind};

/// Parameters of a vacation run (STAMP's command-line flags).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VacationParams {
    /// Number of client threads (`-c`).
    pub clients: usize,
    /// Maximum queries composed into one reservation transaction (`-n`).
    pub queries_per_transaction: usize,
    /// Percentage of the relations that queries may touch (`-q`).
    pub query_range_percent: u64,
    /// Percentage of client transactions that are user reservations (`-u`);
    /// the remainder splits between customer deletions and table updates.
    pub percent_user: u64,
    /// Number of rows in each relation (`-r`).
    pub num_relations: u64,
    /// Total number of client transactions across all threads (`-t`).
    pub num_transactions: u64,
    /// Workload seed.
    pub seed: u64,
}

impl VacationParams {
    /// STAMP's "low contention" configuration, scaled down so it runs in
    /// seconds on a laptop-class host (the shape -n2 -q90 -u98 is preserved;
    /// relations and transaction counts shrink proportionally).
    pub fn low_contention() -> Self {
        VacationParams {
            clients: 1,
            queries_per_transaction: 2,
            query_range_percent: 90,
            percent_user: 98,
            num_relations: 1 << 12,
            num_transactions: 1 << 15,
            seed: 0xacaca,
        }
    }

    /// STAMP's "high contention" configuration (-n4 -q60 -u90), scaled like
    /// [`VacationParams::low_contention`].
    pub fn high_contention() -> Self {
        VacationParams {
            clients: 1,
            queries_per_transaction: 4,
            query_range_percent: 60,
            percent_user: 90,
            num_relations: 1 << 12,
            num_transactions: 1 << 15,
            seed: 0xacaca,
        }
    }

    /// A tiny configuration for unit and integration tests.
    pub fn smoke_test() -> Self {
        VacationParams {
            clients: 2,
            queries_per_transaction: 3,
            query_range_percent: 80,
            percent_user: 90,
            num_relations: 128,
            num_transactions: 600,
            seed: 7,
        }
    }

    /// Builder-style helper: set the number of client threads.
    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// Builder-style helper: multiply the transaction count (the 1×/8×/16×
    /// scaling of Figure 6).
    pub fn with_transaction_multiplier(mut self, multiplier: u64) -> Self {
        self.num_transactions *= multiplier;
        self
    }

    fn query_range(&self) -> u64 {
        ((self.num_relations * self.query_range_percent) / 100).max(1)
    }
}

/// Outcome of one vacation run.
#[derive(Debug, Clone)]
pub struct VacationResult {
    /// Label of the directory structure used for the four tables.
    pub structure: &'static str,
    /// Number of client threads.
    pub clients: usize,
    /// Client transactions executed.
    pub transactions: u64,
    /// Wall-clock duration of the client phase (setup excluded).
    pub elapsed: Duration,
    /// STM statistics accumulated during the client phase.
    pub stm: StatsSnapshot,
    /// Rotations performed across the four directories (§5.5).
    pub rotations: u64,
}

impl VacationResult {
    /// Client transactions per second.
    pub fn transactions_per_second(&self) -> f64 {
        self.transactions as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Speedup of this run over a reference (typically the sequential run).
    pub fn speedup_over(&self, baseline: &VacationResult) -> f64 {
        baseline.elapsed.as_secs_f64() / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Populate the four tables exactly like STAMP's `manager_initialize`: every
/// relation row gets a random number of units at a random price, and one
/// customer record per row.
pub fn initialize<D: DirectoryMap>(stm: &Arc<Stm>, manager: &Manager<D>, params: &VacationParams) {
    let mut ctx = stm.register();
    // Maintenance may already run on the tables, so population brackets its
    // transactions like any client: a node it traverses is never recycled
    // under it.
    let activity = manager.register_activity();
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x1111);
    for id in 1..=params.num_relations {
        let units = 100 * (rng.gen_range(1..=5u64));
        let guards: Vec<_> = activity.iter().map(|a| a.begin()).collect();
        ctx.atomically(|tx| {
            for kind in ReservationKind::ALL {
                let price = 50 * rng.gen_range(1..=5u64) + 50;
                manager.add_resource(tx, kind, id, units, price)?;
            }
            manager.add_customer(tx, id)
        });
        drop(guards);
    }
}

/// Run the client phase: `params.num_transactions` client transactions spread
/// over `params.clients` threads.
pub fn run_clients<D: DirectoryMap>(
    stm: &Arc<Stm>,
    manager: &Arc<Manager<D>>,
    params: &VacationParams,
) -> VacationResult {
    stm.reset_stats();
    let per_client = (params.num_transactions / params.clients as u64).max(1);
    let started = Instant::now();
    let workers: Vec<_> = (0..params.clients)
        .map(|client_index| {
            let manager = Arc::clone(manager);
            let params = params.clone();
            let mut ctx = stm.register();
            let activity = manager.register_activity();
            std::thread::spawn(move || {
                let mut rng =
                    StdRng::seed_from_u64(params.seed ^ ((client_index as u64 + 1) * 0x9e37));
                for _ in 0..per_client {
                    let guards: Vec<_> = activity.iter().map(|a| a.begin()).collect();
                    run_one_transaction(&mut ctx, &manager, &params, &mut rng);
                    drop(guards);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("vacation client panicked");
    }
    let elapsed = started.elapsed();
    VacationResult {
        structure: manager.table(ReservationKind::Car).label(),
        clients: params.clients,
        transactions: per_client * params.clients as u64,
        elapsed,
        stm: stm.stats(),
        rotations: manager.total_rotations(),
    }
}

/// One client transaction, following STAMP's action mix.
fn run_one_transaction<D: DirectoryMap>(
    ctx: &mut sf_stm::ThreadCtx,
    manager: &Manager<D>,
    params: &VacationParams,
    rng: &mut StdRng,
) {
    let action = rng.gen_range(0..100u64);
    let query_range = params.query_range();
    if action < params.percent_user {
        // Make-reservation: query up to n random resources, remember the
        // most expensive available one per kind, then reserve them for a
        // random customer.
        let num_queries = rng.gen_range(1..=params.queries_per_transaction);
        let customer_id = rng.gen_range(1..=params.num_relations);
        let queries: Vec<(ReservationKind, u64)> = (0..num_queries)
            .map(|_| {
                (
                    ReservationKind::ALL[rng.gen_range(0..3usize)],
                    rng.gen_range(1..=query_range),
                )
            })
            .collect();
        ctx.atomically(|tx| {
            let mut best: [Option<(u64, u64)>; 3] = [None; 3]; // (price, id) per kind
            for &(kind, id) in &queries {
                let slot = match kind {
                    ReservationKind::Car => 0,
                    ReservationKind::Room => 1,
                    ReservationKind::Flight => 2,
                };
                if let (Some(price), Some(free)) = (
                    manager.query_price(tx, kind, id)?,
                    manager.query_free(tx, kind, id)?,
                ) {
                    if free > 0 && best[slot].is_none_or(|(p, _)| price > p) {
                        best[slot] = Some((price, id));
                    }
                }
            }
            if best.iter().any(Option::is_some) {
                manager.add_customer(tx, customer_id)?;
                for (slot, kind) in ReservationKind::ALL.iter().enumerate() {
                    if let Some((_, id)) = best[slot] {
                        manager.reserve(tx, *kind, customer_id, id)?;
                    }
                }
            }
            Ok(())
        });
    } else if action % 2 == 0 {
        // Delete-customer: bill then remove.
        let customer_id = rng.gen_range(1..=params.num_relations);
        ctx.atomically(|tx| {
            if manager.query_customer_bill(tx, customer_id)?.is_some() {
                manager.delete_customer(tx, customer_id)?;
            }
            Ok(())
        });
    } else {
        // Update-tables: add or remove units of random resources.
        let num_updates = rng.gen_range(1..=params.queries_per_transaction);
        let updates: Vec<(ReservationKind, u64, bool, u64)> = (0..num_updates)
            .map(|_| {
                (
                    ReservationKind::ALL[rng.gen_range(0..3usize)],
                    rng.gen_range(1..=query_range),
                    rng.gen_bool(0.5),
                    50 * rng.gen_range(1..=5u64) + 50,
                )
            })
            .collect();
        ctx.atomically(|tx| {
            for &(kind, id, add, price) in &updates {
                if add {
                    manager.add_resource(tx, kind, id, 100, price)?;
                } else {
                    manager.delete_resource(tx, kind, id, 100)?;
                }
            }
            Ok(())
        });
    }
}

/// Convenience: initialize the tables and run the clients in one call.
pub fn run_vacation<D: DirectoryMap>(
    stm: &Arc<Stm>,
    manager: &Arc<Manager<D>>,
    params: &VacationParams,
) -> VacationResult {
    initialize(stm, manager, params);
    run_clients(stm, manager, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_baselines::{RedBlackTree, SeqMap};
    use sf_tree::OptSpecFriendlyTree;

    #[test]
    fn params_presets_match_stamp_shape() {
        let low = VacationParams::low_contention();
        let high = VacationParams::high_contention();
        assert_eq!(low.queries_per_transaction, 2);
        assert_eq!(low.query_range_percent, 90);
        assert_eq!(low.percent_user, 98);
        assert_eq!(high.queries_per_transaction, 4);
        assert_eq!(high.query_range_percent, 60);
        assert_eq!(high.percent_user, 90);
        assert_eq!(
            low.clone().with_transaction_multiplier(8).num_transactions,
            low.num_transactions * 8
        );
    }

    #[test]
    fn smoke_run_on_sequential_directories() {
        let stm = Stm::default_config();
        let manager = Arc::new(Manager::<SeqMap>::new());
        let params = VacationParams::smoke_test().with_clients(1);
        let result = run_vacation(&stm, &manager, &params);
        assert_eq!(result.transactions, 600);
        assert!(result.elapsed > Duration::ZERO);
        manager.check_consistency().unwrap();
    }

    #[test]
    fn smoke_run_on_speculation_friendly_directories_with_maintenance() {
        let stm = Stm::default_config();
        let manager = Arc::new(Manager::<OptSpecFriendlyTree>::new());
        let maintenance: Vec<_> = ReservationKind::ALL
            .iter()
            .map(|k| manager.table(*k).start_maintenance(stm.register()))
            .collect();
        let params = VacationParams::smoke_test();
        let result = run_vacation(&stm, &manager, &params);
        drop(maintenance);
        assert_eq!(result.transactions, 600);
        assert_eq!(result.structure, "OptSFtree");
        manager.check_consistency().unwrap();
    }

    #[test]
    fn smoke_run_on_red_black_directories() {
        let stm = Stm::default_config();
        let manager = Arc::new(Manager::<RedBlackTree>::new());
        let params = VacationParams::smoke_test();
        let result = run_vacation(&stm, &manager, &params);
        assert_eq!(result.structure, "RBtree");
        assert!(result.stm.commits >= result.transactions);
        manager.check_consistency().unwrap();
    }
}
