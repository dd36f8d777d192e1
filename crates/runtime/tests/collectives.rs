//! Property tests for the rank runtime's collectives: random rank counts,
//! payload sizes, and values — a fold must give the sequential bits on
//! every rank, and its accounting must be exact.

use pbte_runtime::world::World;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fold is the runtime's allreduce: every rank ends with the bits
    /// of the sequential left fold `((0 + v₀) + v₁) + …` in rank order,
    /// every run (the order the band-partitioned temperature update's bit
    /// identity rests on).
    #[test]
    fn allreduce_is_deterministic_and_exact(
        n_ranks in 1usize..8,
        len in 0usize..40,
        seed in any::<u64>(),
    ) {
        // Per-rank pseudo-random contributions over many binades, so any
        // other association would round differently.
        let value = |rank: usize, i: usize| -> f64 {
            let mut x = seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15)
                ^ (i as u64).wrapping_mul(0xBF58476D1CE4E5B9);
            x ^= x >> 31;
            ((x % 1000) as f64 / 997.0 - 0.5) * f64::powi(2.0, (x >> 40) as i32 % 40)
        };
        let reference: Vec<u64> = (0..len)
            .map(|i| (0..n_ranks).fold(0.0, |acc, r| acc + value(r, i)).to_bits())
            .collect();

        for _ in 0..2 {
            let results = World::run(n_ranks, |ctx| {
                let (rank, mut buf) = (ctx.rank, vec![0.0; len]);
                ctx.fold(&mut buf, &mut |running| {
                    for (i, v) in running.iter_mut().enumerate() {
                        *v += value(rank, i);
                    }
                });
                buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            });
            for bits in results {
                prop_assert_eq!(&bits, &reference, "the fold must give the sequential bits");
            }
        }
    }

    /// Message/byte accounting: the fold sends `2(p−1)` messages of `len`
    /// doubles — one hop along the rank chain per rank but the last, and
    /// the last rank's `p−1` broadcasts.
    #[test]
    fn allreduce_accounting(n_ranks in 1usize..8, len in 0usize..32) {
        let results = World::run(n_ranks, |ctx| {
            let mut buf = vec![1.0; len];
            ctx.fold(&mut buf, &mut |running| {
                for v in running.iter_mut() {
                    *v += 1.0;
                }
            });
            ctx.stats
        });
        let total_msgs: usize = results.iter().map(|s| s.messages).sum();
        let total_bytes: u64 = results.iter().map(|s| s.bytes).sum();
        prop_assert_eq!(total_msgs, 2 * (n_ranks - 1));
        prop_assert_eq!(total_bytes, (2 * (n_ranks - 1) * len * 8) as u64);
        // The last rank sends the broadcasts; every other rank sends one hop.
        let (last, chain) = results.split_last().unwrap();
        prop_assert_eq!(last.messages, n_ranks - 1);
        for s in chain {
            prop_assert_eq!(s.messages, 1);
        }
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

#[test]
fn a_panicking_rank_fails_the_run_instead_of_hanging() {
    // Rank 1 waits for a message rank 0 never sends; without the
    // poison message it would wait forever.
    let (done, finished) = std::sync::mpsc::channel();
    let watched = std::thread::spawn(move || {
        let run = std::panic::catch_unwind(|| {
            World::run(2, |ctx| {
                if ctx.rank == 0 {
                    panic!("rank 0 fails before sending");
                }
                ctx.recv(0, 1);
            })
        });
        let _ = done.send(run.is_err());
    });
    let failed = finished
        .recv_timeout(std::time::Duration::from_secs(10))
        .expect("World::run returns within 10 s when a rank panics");
    assert!(failed, "World::run must fail when a rank panics");
    watched.join().expect("the watched thread caught the panic");
}
