//! Differential pin of the reservation-indexed droplet router against the
//! frozen pre-index planner (`route::reference`): for any workload the
//! generators produce — spread random instances decorated with departures,
//! deadlines, merge groups, landing windows, obstacles and degraded
//! electrodes, the transport batches real `random_protocol` compilations
//! hand the router, and crowded instances that exhaust every priority
//! rotation — both planners must return byte-identical results: the same
//! `Route` sequences, the same `RoutingOutcome` stats, or the same error.
//!
//! All randomness is seed-derived through the vendored deterministic
//! proptest, so the exact same cases replay in CI.

use micronano::fluidics::compiler::transport_plan;
use micronano::fluidics::geometry::{Cell, Grid};
use micronano::fluidics::modules::ModuleLibrary;
use micronano::fluidics::route::{self, Obstacle, RouteError, RoutingConfig, RoutingRequest};
use micronano::fluidics::schedule::{schedule_with_keepout, ScheduleConfig};
use micronano::fluidics::workload::{random_protocol, random_routing_instance, RoutingWorkload};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Decorates a spread instance with the request features the compiler
/// uses — staggered departures, deadlines, a merge-group pair, landing
/// windows — plus a random time-windowed obstacle and a couple of
/// degraded electrodes, all derived deterministically from `seed`.
///
/// A landing window (`earliest_arrival`) opens up to 40 ticks after the
/// droplet could first arrive, so the planner must hold it on a long
/// plateau of equal-cost states; some of those droplets also get a
/// degraded electrode inside their start–goal box, on a shortest path.
fn decorate(seed: u64, grid: &Grid, requests: &mut [RoutingRequest]) -> (Vec<Obstacle>, Vec<Cell>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for req in requests.iter_mut() {
        if rng.gen_bool(0.5) {
            req.depart = rng.gen_range(0..6);
        }
        if rng.gen_bool(0.2) {
            // Generous: the trip plus slack for detours, so most decorated
            // instances stay routable while some genuinely fail.
            let trip = req.start.manhattan(req.goal) as u32;
            req.deadline = Some(req.depart + trip + rng.gen_range(0..20));
        }
    }
    if requests.len() >= 2 && rng.gen_bool(0.4) {
        // Two droplets heading for a shared merge point.
        let g = rng.gen_range(100..110);
        let goal = requests[0].goal;
        requests[0].merge_group = Some(g);
        requests[1].goal = goal;
        requests[1].merge_group = Some(g);
    }
    let mut obstacles = Vec::new();
    if rng.gen_bool(0.5) {
        let x = rng.gen_range(0..grid.width() - 2);
        let y = rng.gen_range(0..grid.height() - 2);
        let from = rng.gen_range(0..10);
        obstacles.push(Obstacle::region(
            Cell::new(x, y),
            Cell::new(x + rng.gen_range(0..3), y + rng.gen_range(0..3)),
            from,
            from + rng.gen_range(5..40),
            0,
        ));
    }
    let mut degraded: Vec<Cell> = (0..rng.gen_range(0..4))
        .map(|_| {
            Cell::new(
                rng.gen_range(0..grid.width()),
                rng.gen_range(0..grid.height()),
            )
        })
        .collect();
    for req in requests.iter_mut() {
        if rng.gen_bool(0.3) {
            let trip = req.start.manhattan(req.goal) as u32;
            req.earliest_arrival = Some(req.depart + trip + rng.gen_range(0..40));
            if rng.gen_bool(0.5) {
                let (x0, x1) = (req.start.x.min(req.goal.x), req.start.x.max(req.goal.x));
                let (y0, y1) = (req.start.y.min(req.goal.y), req.start.y.max(req.goal.y));
                degraded.push(Cell::new(rng.gen_range(x0..=x1), rng.gen_range(y0..=y1)));
            }
        }
    }
    (obstacles, degraded)
}

/// A small instance on which every priority order fails: tight deadlines
/// (the trip plus at most two ticks of slack) on a crowded 8×8 array.
/// Seeds are tried from `seed` on until the oracle fails even with 39
/// rotations, which, since each pass depends only on the order, means
/// every rotation budget below 40 fails too. About two in five seeds
/// qualify; their orders cycle with periods from 1 to 6.
fn exhausting_instance(seed: u64) -> (Grid, Vec<RoutingRequest>) {
    for s in seed.. {
        let mut rng = ChaCha8Rng::seed_from_u64(s);
        let droplets = rng.gen_range(3..6);
        let w = RoutingWorkload {
            grid_side: 8,
            droplets,
        };
        let (grid, mut requests) = random_routing_instance(&w, &mut rng);
        for req in requests.iter_mut() {
            let trip = req.start.manhattan(req.goal) as u32;
            req.deadline = Some(trip + rng.gen_range(0..3));
        }
        let cfg = RoutingConfig::new().max_priority_rotations(39);
        let oracle = route::reference::route_with_environment(&grid, &requests, &[], &[], &cfg);
        if matches!(oracle, Err(RouteError::Unroutable(_))) {
            return (grid, requests);
        }
    }
    unreachable!("the seed range is unbounded")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // Random spread instances, decorated, across all three lookahead
    // tiers: the reservation-indexed planner and the frozen oracle must
    // agree exactly — routes, makespan, stall/move totals, rotation
    // count, or the identical error.
    #[test]
    fn matches_oracle_on_random_instances(
        seed in 0u64..100_000,
        droplets in 2usize..7,
        lookahead in 0u32..3,
    ) {
        let w = RoutingWorkload { grid_side: 14, droplets };
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (grid, mut requests) = random_routing_instance(&w, &mut rng);
        let (obstacles, degraded) = decorate(seed ^ 0x5eed, &grid, &mut requests);
        let cfg = RoutingConfig::new().lookahead(lookahead);
        let fast = route::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        let oracle =
            route::reference::route_with_environment(&grid, &requests, &obstacles, &degraded, &cfg);
        prop_assert_eq!(fast, oracle);
    }

    // The batches real protocol compilations hand the router: a random
    // full-opset protocol is scheduled, its transport plan (module
    // obstacles, merge groups, landing windows, deadlines) extracted, and
    // both planners must agree on it exactly.
    #[test]
    fn matches_oracle_on_protocol_batches(
        seed in 0u64..100_000,
        ops in 1usize..6,
        lookahead in 0u32..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let assay = random_protocol(ops, &mut rng);
        let grid = Grid::new(16, 16).expect("valid grid");
        let sched = schedule_with_keepout(
            &assay,
            &grid,
            &ModuleLibrary::default(),
            &ScheduleConfig::default(),
            &[],
        )
        .expect("random protocols schedule on a clean 16×16 array");
        let (requests, obstacles) = transport_plan(&assay, &sched);
        let cfg = RoutingConfig::new().lookahead(lookahead);
        let fast = route::route_with_environment(&grid, &requests, &obstacles, &[], &cfg);
        let oracle =
            route::reference::route_with_environment(&grid, &requests, &obstacles, &[], &cfg);
        prop_assert_eq!(fast, oracle);
    }

    // Instances that exhaust every rotation budget: the production
    // router stops once a planning order repeats and answers by period
    // arithmetic, the oracle runs every rotation; both must name the same
    // unroutable droplet for any budget.
    #[test]
    fn exhausted_rotations_match_oracle(
        seed in 0u64..100_000,
        rotations in 0u32..40,
    ) {
        let (grid, requests) = exhausting_instance(seed);
        let cfg = RoutingConfig::new().max_priority_rotations(rotations);
        let fast = route::route_with_environment(&grid, &requests, &[], &[], &cfg);
        let oracle = route::reference::route_with_environment(&grid, &requests, &[], &[], &cfg);
        prop_assert!(matches!(oracle, Err(RouteError::Unroutable(_))), "{:?}", oracle);
        prop_assert_eq!(fast, oracle);
    }
}
