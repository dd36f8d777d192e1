//! Threaded rank execution with real message passing.
//!
//! [`World::run`] launches one OS thread per rank and gives each a
//! [`RankCtx`] with the MPI-shaped primitives the distributed targets use:
//! tagged send, tagged selective receive, and a fold in rank order
//! ([`RankCtx::fold`]). Every transfer is counted (messages and bytes) so
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
const TAG_FOLD: u32 = RESERVED_TAG;
const TAG_BCAST: u32 = RESERVED_TAG + 1;
/// Sent by a rank that panicked to every peer: a `recv` that reads it
/// panics too, so no rank waits for a message that will never come.
const TAG_POISON: u32 = RESERVED_TAG + 2;

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
    /// Messages arriving out of order are held in a mailbox, in arrival
    /// order. Panics if a peer rank panicked.
    pub fn recv(&mut self, from: usize, tag: u32) -> Vec<f64> {
        if let Some(pos) = self
            .mailbox
            .iter()
            .position(|m| m.from == from && m.tag == tag)
        {
            return self.mailbox.remove(pos).data;
        }
        loop {
            let msg = self
                .receiver
                .recv()
                .expect("sender threads alive for the scope of World::run");
            if msg.tag == TAG_POISON {
                panic!("rank {} panicked", msg.from);
            }
            if msg.from == from && msg.tag == tag {
                return msg.data;
            }
            self.mailbox.push(msg);
        }
    }

    /// Fold `add` over the ranks in rank order; every rank returns with
    /// the result. Rank 0 applies `add` to its own `buf`; each later rank
    /// receives the running buffer into `buf`, applies `add` and sends it
    /// on; the last rank sends the result to every other rank. That is
    /// `2(p−1)` messages of `buf.len()` doubles, the count of a
    /// reduce-to-root plus broadcast. On one rank it is `add(buf)`.
    pub fn fold(&mut self, buf: &mut [f64], add: &mut dyn FnMut(&mut [f64])) {
        let (rank, last) = (self.rank, self.n_ranks - 1);
        if rank > 0 {
            buf.copy_from_slice(&self.recv(rank - 1, TAG_FOLD));
        }
        add(buf);
        if rank < last {
            self.send_internal(rank + 1, TAG_FOLD, buf.to_vec());
            buf.copy_from_slice(&self.recv(last, TAG_BCAST));
        } else {
            for to in 0..last {
                self.send_internal(to, TAG_BCAST, buf.to_vec());
            }
        }
    }

    /// Tell every peer this rank panicked (best effort: a peer that has
    /// already returned has no receiver left).
    fn poison_peers(&self) {
        for (to, sender) in self.senders.iter().enumerate() {
            if to != self.rank {
                let data = Vec::new();
                let _ = sender.send(Msg {
                    from: self.rank,
                    tag: TAG_POISON,
                    data,
                });
            }
        }
    }
}

/// A collection of ranks executing the same program (SPMD).
pub struct World;

impl World {
    /// Run `program` on `n_ranks` threads; returns per-rank results in rank
    /// order. A panic in any rank propagates: the rank's peers panic at
    /// their next `recv` instead of waiting for it.
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
                    let run = std::panic::AssertUnwindSafe(|| program(&mut ctx));
                    std::panic::catch_unwind(run).unwrap_or_else(|payload| {
                        ctx.poison_peers();
                        std::panic::resume_unwind(payload)
                    })
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
    fn fold_visits_ranks_in_rank_order() {
        // Appending a digit per rank is not commutative: only rank order
        // gives 1234567, and every rank ends with it.
        let results = World::run(7, |ctx| {
            let mut buf = vec![0.0, 1.0];
            let digit = (ctx.rank + 1) as f64;
            ctx.fold(&mut buf, &mut |b| {
                (b[0], b[1]) = (10.0 * b[0] + digit, b[1] + 1.0)
            });
            buf
        });
        for r in &results {
            assert_eq!(r, &[1234567.0, 8.0]);
        }
    }

    #[test]
    fn fold_on_single_rank_is_add() {
        let results = World::run(1, |ctx| {
            let mut buf = vec![5.0];
            ctx.fold(&mut buf, &mut |b| b[0] += 2.0);
            (buf[0], ctx.stats.messages)
        });
        assert_eq!(results[0], (7.0, 0));
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
