//! Property tests for the rank runtime's collectives: random rank counts,
//! payload sizes, and values — sums must be exact-order deterministic and
//! accounting consistent.

use pbte_runtime::world::World;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Allreduce equals the rank-ordered sequential sum — exactly, on
    /// every rank, every run (the deterministic-order guarantee the
    /// temperature update's reproducibility rests on).
    #[test]
    fn allreduce_is_deterministic_and_exact(
        n_ranks in 1usize..7,
        len in 1usize..40,
        seed in any::<u64>(),
    ) {
        // Per-rank pseudo-random contributions, reproducible from the seed.
        let value = |rank: usize, i: usize| -> f64 {
            let mut x = seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (i as u64).wrapping_mul(0xBF58476D1CE4E5B9);
            x ^= x >> 31;
            (x % 1000) as f64 / 997.0 - 0.5
        };
        // Reference: sum in rank order 0, 1, 2, ... (the runtime's
        // documented reduction order).
        let reference: Vec<f64> = (0..len)
            .map(|i| {
                let mut acc = value(0, i);
                for r in 1..n_ranks {
                    acc += value(r, i);
                }
                acc
            })
            .collect();

        for _ in 0..2 {
            let results = World::run(n_ranks, |ctx| {
                let mut buf: Vec<f64> = (0..len).map(|i| value(ctx.rank, i)).collect();
                ctx.allreduce_sum(&mut buf);
                buf
            });
            for r in results {
                prop_assert_eq!(&r, &reference, "allreduce must be exact and ordered");
            }
        }
    }

    /// Message/byte accounting: an allreduce moves exactly
    /// (n−1) payloads in and (n−1) out of rank 0.
    #[test]
    fn allreduce_accounting(n_ranks in 2usize..7, len in 1usize..32) {
        let results = World::run(n_ranks, |ctx| {
            let mut buf = vec![1.0; len];
            ctx.allreduce_sum(&mut buf);
            ctx.stats
        });
        let total_msgs: usize = results.iter().map(|s| s.messages).sum();
        let total_bytes: u64 = results.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(total_msgs, 2 * (n_ranks - 1));
        prop_assert_eq!(total_bytes, (2 * (n_ranks - 1) * len * 8) as u64);
        // Rank 0 sends the broadcasts; everyone else sends one reduce.
        prop_assert_eq!(results[0].messages, n_ranks - 1);
    }
}

#[test]
fn point_to_point_stress_all_pairs() {
    // Every rank sends a tagged value to every other rank; all must match.
    let n = 6;
    let results = World::run(n, |ctx| {
        for to in 0..n {
            if to != ctx.rank {
                ctx.send(to, ctx.rank as u32, vec![(ctx.rank * 100 + to) as f64]);
            }
        }
        let mut got = Vec::new();
        for from in 0..n {
            if from != ctx.rank {
                let v = ctx.recv(from, from as u32);
                got.push((from, v[0]));
            }
        }
        got
    });
    for (rank, got) in results.into_iter().enumerate() {
        for (from, value) in got {
            assert_eq!(value, (from * 100 + rank) as f64);
        }
    }
}
