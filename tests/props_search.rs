//! Property-based tests on the search layer: incremental-state consistency
//! under arbitrary flip programs, batch-search invariants, pool invariants.

use dabs::core::{GeneticOp, PoolEntry, SolutionPool};
use dabs::model::{BestTracker, IncrementalState, KernelChoice, QuboBuilder, QuboModel, Solution};
use dabs::search::{BatchSearch, MainAlgorithm, SearchParams};
use proptest::prelude::*;

fn arb_qubo(max_n: usize) -> impl Strategy<Value = QuboModel> {
    (4..=max_n).prop_flat_map(|n| {
        let diag = proptest::collection::vec(-15i64..=15, n);
        let edges = proptest::collection::vec(
            ((0..n), (0..n), -15i64..=15).prop_filter("no loops", |(i, j, _)| i != j),
            1..(n * 3),
        );
        (Just(n), diag, edges).prop_map(|(n, diag, edges)| {
            let mut b = QuboBuilder::new(n);
            for (i, d) in diag.into_iter().enumerate() {
                b.add_linear(i, d);
            }
            for (i, j, w) in edges {
                b.add_quadratic(i, j, w);
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_state_survives_arbitrary_flip_programs(
        q in arb_qubo(24),
        program in proptest::collection::vec(any::<u16>(), 1..200),
    ) {
        let mut st = IncrementalState::new(&q);
        for p in program {
            st.flip(p as usize % q.n());
        }
        // full recomputation agrees with the incremental view
        st.assert_consistent();
    }

    #[test]
    fn batch_search_result_energy_matches_model(
        q in arb_qubo(140),
        seed in any::<u64>(),
        algo_idx in 0usize..5,
    ) {
        // Up to 140 bits spans three 64-bit segments, so segment-layer
        // selection is exercised across boundaries and a partial tail, on
        // both kernels from the same RNG stream.
        let mut q = q;
        q.select_kernel(KernelChoice::Dense);
        let n = q.n();
        let algo = MainAlgorithm::ALL[algo_idx];
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        let target = Solution::random(n, &mut rng);
        let mut rng_dense = rng;

        let mut st = IncrementalState::new(&q);
        let mut batch = BatchSearch::new(n, SearchParams::default());
        let out = batch.run(&mut st, &target, algo, &mut rng);
        prop_assert_eq!(q.energy(&out.best), out.energy);
        prop_assert!(out.flips > 0 || st.solution() == &target);
        // the resident state is still internally consistent
        st.assert_consistent();

        let mut st_dense = IncrementalState::new_dense(&q);
        let mut batch = BatchSearch::new(n, SearchParams::default());
        let out_dense = batch.run(&mut st_dense, &target, algo, &mut rng_dense);
        prop_assert_eq!(q.energy(&out_dense.best), out_dense.energy);
        st_dense.assert_consistent();
        // the kernels are bit-identical, so the whole batch is too
        prop_assert_eq!(&out_dense.best, &out.best);
        prop_assert_eq!(out_dense.flips, out.flips);
        prop_assert_eq!(st_dense.solution(), st.solution());
    }

    #[test]
    fn batch_best_is_at_least_as_good_as_visited_endpoint(
        q in arb_qubo(20),
        seed in any::<u64>(),
    ) {
        let n = q.n();
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        let target = Solution::random(n, &mut rng);
        let mut st = IncrementalState::new(&q);
        let mut batch = BatchSearch::new(n, SearchParams::default());
        let out = batch.run(&mut st, &target, MainAlgorithm::PositiveMin, &mut rng);
        prop_assert!(out.energy <= st.energy(), "best must dominate the endpoint");
        prop_assert!(out.energy <= q.energy(&target), "best must dominate the target");
    }

    #[test]
    fn pool_stays_sorted_and_bounded(
        energies in proptest::collection::vec(-1000i64..1000, 1..60),
        capacity in 1usize..12,
    ) {
        let mut pool = SolutionPool::new(capacity, false);
        let mut rng = dabs::rng::Xorshift64Star::new(7);
        for e in &energies {
            pool.insert(PoolEntry {
                solution: Solution::random(16, &mut rng),
                energy: *e,
                algorithm: MainAlgorithm::MaxMin,
                operation: GeneticOp::Mutation,
            });
        }
        prop_assert!(pool.len() <= capacity);
        // sorted ascending
        let es: Vec<i64> = pool.iter().map(|p| p.energy).collect();
        for w in es.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        // the pool holds the k smallest energies seen
        let mut sorted = energies.clone();
        sorted.sort_unstable();
        let expect: Vec<i64> = sorted.into_iter().take(pool.len()).collect();
        prop_assert_eq!(es, expect);
    }

    #[test]
    fn best_tracker_never_regresses(
        q in arb_qubo(20),
        program in proptest::collection::vec(any::<u16>(), 1..100),
    ) {
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(q.n());
        let mut minimum = i64::MAX;
        for p in program {
            st.flip(p as usize % q.n());
            best.observe(&st);
            minimum = minimum.min(st.energy());
            prop_assert_eq!(best.energy(), minimum);
            prop_assert!(best.energy() <= st.energy());
        }
        prop_assert_eq!(q.energy(best.solution()), best.energy());
    }

    #[test]
    fn greedy_always_lands_in_local_minimum(
        q in arb_qubo(20),
        seed in any::<u64>(),
    ) {
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        let start = Solution::random(q.n(), &mut rng);
        let mut st = IncrementalState::from_solution(&q, start);
        let mut best = BestTracker::unbounded(q.n());
        let mut tabu = dabs::search::TabuList::new(q.n(), 0);
        dabs::search::greedy(&mut st, &mut best, &mut tabu, u64::MAX);
        let (_, d) = st.min_delta();
        prop_assert!(d >= 0, "greedy must terminate at a local minimum");
    }

    #[test]
    fn straight_reaches_any_target(
        q in arb_qubo(20),
        seed in any::<u64>(),
    ) {
        let mut rng = dabs::rng::Xorshift64Star::new(seed);
        let target = Solution::random(q.n(), &mut rng);
        let mut st = IncrementalState::new(&q);
        let mut best = BestTracker::unbounded(q.n());
        let mut tabu = dabs::search::TabuList::new(q.n(), 8);
        let flips = dabs::search::straight(&mut st, &mut best, &mut tabu, &target);
        prop_assert_eq!(st.solution(), &target);
        prop_assert_eq!(flips as usize, Solution::zeros(q.n()).hamming(&target));
    }
}
