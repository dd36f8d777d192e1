//! Threaded rank execution with real message passing.
//!
//! [`World::run`] launches one OS thread per rank and gives each a
//! [`RankCtx`] with the MPI-shaped primitives the distributed targets use:
//! tagged send, tagged selective receive, and a rank-ordered
//! sum-allreduce. Every transfer is counted (messages and bytes) so
//! validation runs double as communication-volume measurements for the
//! cost model.
//!
//! This is the *correctness* half of the runtime: it executes partitioned
//! algorithms for real. Timing predictions come from
//! [`crate::comm::CommModel`] instead — wall-clock of these threads on a
//! one-core host means nothing.

use crossbeam::channel::{unbounded, Receiver, Sender};

/// A tagged message between ranks.
struct Msg {
    from: usize,
    tag: u32,
    data: Vec<f64>,
}

/// Communication statistics accumulated by one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Messages sent by this rank (collectives count their constituent
    /// point-to-point messages).
    pub messages: usize,
    /// Payload bytes sent by this rank.
    pub bytes: u64,
}

/// Per-rank execution context.
pub struct RankCtx {
    pub rank: usize,
    pub n_ranks: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    mailbox: Vec<Msg>,
    /// Send-side statistics.
    pub stats: CommStats,
}

/// Tags at or above this value are reserved for collectives.
const RESERVED_TAG: u32 = u32::MAX - 16;
const TAG_REDUCE: u32 = RESERVED_TAG;
const TAG_BCAST: u32 = RESERVED_TAG + 1;

impl RankCtx {
    /// Send `data` to rank `to` with a user `tag`.
    pub fn send(&mut self, to: usize, tag: u32, data: Vec<f64>) {
        assert!(tag < RESERVED_TAG, "tag {tag} is reserved for collectives");
        self.send_internal(to, tag, data);
    }

    fn send_internal(&mut self, to: usize, tag: u32, data: Vec<f64>) {
        self.stats.messages += 1;
        self.stats.bytes += (data.len() * std::mem::size_of::<f64>()) as u64;
        self.senders[to]
            .send(Msg {
                from: self.rank,
                tag,
                data,
            })
            .expect("receiver thread alive for the scope of World::run");
    }

    /// Blocking selective receive: the first message from `from` with `tag`.
    /// Messages arriving out of order are held in a mailbox.
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<f64> {
        if let Some(pos) = self
            .mailbox
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            return self.mailbox.swap_remove(pos).data;
        }
        loop {
            let msg = self
                .receiver
                .recv()
                .expect("sender threads alive for the scope of World::run");
            if msg.from == from && msg.tag == tag {
                return msg.data;
            }
            self.mailbox.push(msg);
        }
    }

    /// Element-wise sum over all ranks; every rank ends with the total.
    /// Implemented as reduce-to-root + broadcast (what the band-parallel
    /// temperature update needs for per-cell energy).
    pub fn allreduce_sum(&mut self, buf: &mut [f64]) {
        if self.n_ranks == 1 {
            return;
        }
        if self.rank == 0 {
            // Receive in rank order so the floating-point summation order
            // is deterministic run-to-run (unlike arrival order).
            for src in 1..self.n_ranks {
                let msg = self.recv(src, TAG_REDUCE);
                assert_eq!(msg.len(), buf.len(), "allreduce length mismatch");
                for (acc, v) in buf.iter_mut().zip(msg) {
                    *acc += v;
                }
            }
            for to in 1..self.n_ranks {
                self.send_internal(to, TAG_BCAST, buf.to_vec());
            }
        } else {
            self.send_internal(0, TAG_REDUCE, buf.to_vec());
            let result = self.recv(0, TAG_BCAST);
            buf.copy_from_slice(&result);
        }
    }
}

/// A collection of ranks executing the same program (SPMD).
pub struct World;

impl World {
    /// Run `program` on `n_ranks` threads; returns per-rank results in rank
    /// order. Panics in any rank propagate.
    pub fn run<R, F>(n_ranks: usize, program: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        assert!(n_ranks > 0);
        let mut senders = Vec::with_capacity(n_ranks);
        let mut receivers = Vec::with_capacity(n_ranks);
        for _ in 0..n_ranks {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n_ranks);
            for (rank, receiver) in receivers.into_iter().enumerate() {
                let senders = senders.clone();
                let program = &program;
                handles.push(scope.spawn(move || {
                    let mut ctx = RankCtx {
                        rank,
                        n_ranks,
                        senders,
                        receiver,
                        mailbox: Vec::new(),
                        stats: CommStats::default(),
                    };
                    program(&mut ctx)
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pass_accumulates() {
        // Each rank adds its id and passes a token around the ring.
        let results = World::run(5, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 7, vec![0.0]);
                let token = ctx.recv(4, 7);
                token[0]
            } else {
                let mut token = ctx.recv(ctx.rank - 1, 7);
                token[0] += ctx.rank as f64;
                ctx.send((ctx.rank + 1) % ctx.n_ranks, 7, token);
                -1.0
            }
        });
        assert_eq!(results[0], 10.0); // 1+2+3+4
    }

    #[test]
    fn allreduce_sums_across_ranks() {
        let results = World::run(7, |ctx| {
            let mut buf = vec![ctx.rank as f64, 1.0];
            ctx.allreduce_sum(&mut buf);
            buf
        });
        for r in &results {
            assert_eq!(r[0], 21.0); // 0+..+6
            assert_eq!(r[1], 7.0);
        }
    }

    #[test]
    fn allreduce_on_single_rank_is_identity() {
        let results = World::run(1, |ctx| {
            let mut buf = vec![5.0];
            ctx.allreduce_sum(&mut buf);
            buf[0]
        });
        assert_eq!(results[0], 5.0);
    }

    #[test]
    fn selective_receive_handles_out_of_order_tags() {
        let results = World::run(2, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 1, vec![1.0]);
                ctx.send(1, 2, vec![2.0]);
                0.0
            } else {
                // Receive tag 2 first even though tag 1 arrives first.
                let b = ctx.recv(0, 2);
                let a = ctx.recv(0, 1);
                a[0] * 10.0 + b[0]
            }
        });
        assert_eq!(results[1], 12.0);
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let results = World::run(2, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, 3, vec![0.0; 100]);
                let _ = ctx.recv(1, 4);
            } else {
                let _ = ctx.recv(0, 3);
                ctx.send(0, 4, Vec::new());
            }
            ctx.stats
        });
        assert_eq!(results[0].messages, 1);
        assert_eq!(results[0].bytes, 800);
        // Rank 1 sent only its empty acknowledgement.
        assert_eq!(
            results[1],
            CommStats {
                messages: 1,
                bytes: 0
            }
        );
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn reserved_tags_are_rejected() {
        // The offending rank panics with "reserved for collectives"; the
        // join surfaces it as a rank-thread panic.
        World::run(2, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, u32::MAX - 1, vec![]);
            } else {
                // Make the test deterministic: rank 1 just exits.
            }
        });
    }
}
