//! Property-style tests for channel FIFO semantics — the invariants every
//! simulated pipeline relies on — driven by deterministic op sequences (the
//! offline build has no proptest). Channels are driven directly through the
//! engine's [`SimContext`], outside any kernel. The point-to-point FIFO is
//! a one-member bank.

use hls_sim::{
    ChannelBankId, Cycle, Engine, Kernel, Progress, SendError, SimContext, WakeSet, DEFAULT_LATENCY,
};

/// Deterministic 64-bit generator for op-sequence synthesis.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A point-to-point FIFO: a one-member bank.
fn fifo<T: Send + 'static>(engine: &mut Engine, name: &str, capacity: usize) -> ChannelBankId<T> {
    engine.channel_bank(name, 0, 1, capacity)
}

fn send<T: Send + 'static>(
    ctx: &mut SimContext,
    cy: Cycle,
    ch: ChannelBankId<T>,
    value: T,
) -> Result<(), SendError<T>> {
    ctx.bank_with(ch, |v| v.try_send(cy, 0, value))
}

fn recv<T: Send + 'static>(ctx: &mut SimContext, cy: Cycle, ch: ChannelBankId<T>) -> Option<T> {
    ctx.bank_with(ch, |v| v.try_recv(cy, 0))
}

/// Whatever interleaving of sends and receives happens, the received
/// sequence is a prefix-order-preserving subsequence of the sent one.
#[test]
fn fifo_order_under_arbitrary_interleaving() {
    let mut s = 0xf1f0u64;
    for case in 0..128 {
        let ops = 1 + (splitmix(&mut s) % 199) as usize;
        let capacity = 1 + (splitmix(&mut s) % 15) as usize;
        let mut engine = Engine::new();
        let ch = fifo::<u64>(&mut engine, "t", capacity);
        let ctx = engine.context_mut();
        let mut sent = 0u64;
        let mut received = Vec::new();
        for cy in 0..ops as u64 {
            if splitmix(&mut s).is_multiple_of(2) {
                if send(ctx, cy, ch, sent).is_ok() {
                    sent += 1;
                }
            } else if let Some(v) = recv(ctx, cy, ch) {
                received.push(v);
            }
        }
        // FIFO: received values are exactly 0..k in order.
        for (i, &v) in received.iter().enumerate() {
            assert_eq!(v, i as u64, "case {case}");
        }
        assert!(received.len() as u64 <= sent, "case {case}");
    }
}

/// Occupancy never exceeds capacity, and stats balance.
#[test]
fn capacity_and_stats_invariants() {
    let mut s = 0xcafeu64;
    for case in 0..128 {
        let ops = 1 + (splitmix(&mut s) % 199) as usize;
        let capacity = 1 + (splitmix(&mut s) % 7) as usize;
        let mut engine = Engine::new();
        let ch = fifo::<u64>(&mut engine, "t", capacity);
        let ctx = engine.context_mut();
        for cy in 0..ops as u64 {
            if splitmix(&mut s).is_multiple_of(2) {
                let _ = send(ctx, cy, ch, cy);
            } else {
                let _ = recv(ctx, cy, ch);
            }
            let st = &ctx.channel_stats()[0];
            assert!(st.occupancy <= capacity, "case {case}");
            assert!(st.max_occupancy <= capacity, "case {case}");
            assert_eq!(st.in_flight(), st.occupancy as u64, "case {case}");
        }
    }
}

/// An item is never visible before its latency has elapsed, and is visible
/// from then on.
#[test]
fn latency_is_respected() {
    for send_cy in [0u64, 1, 17, 99] {
        let mut engine = Engine::new();
        let ch = fifo::<u8>(&mut engine, "t", 4);
        let ctx = engine.context_mut();
        send(ctx, send_cy, ch, 1u8).unwrap();
        let at = send_cy + DEFAULT_LATENCY;
        assert_eq!(ctx.bank_recv_visible_at(ch, 0), Some(at));
        assert_eq!(recv(ctx, at - 1, ch), None);
        assert_eq!(recv(ctx, at, ch), Some(1));
    }
}

/// Broadcast taps behave exactly like independent FIFOs fed the same
/// atomic pushes: per-tap FIFO order, per-tap latency, slowest-tap gating.
#[test]
fn broadcast_taps_mirror_plain_channels() {
    let mut s = 0xb44du64;
    for case in 0..64 {
        let capacity = 1 + (splitmix(&mut s) % 7) as usize;
        let readers = 1 + (splitmix(&mut s) % 4) as usize;
        let mut engine = Engine::new();
        let (btx, brx) = engine.broadcast_channel::<u64>("w", readers, capacity);
        let ctx = engine.context_mut();
        let mut sent = 0u64;
        let mut received = vec![Vec::new(); readers];
        for cy in 0..200u64 {
            match splitmix(&mut s) % (readers as u64 + 1) {
                0 => {
                    if ctx.bcast_try_send(cy, btx, sent).is_ok() {
                        sent += 1;
                    }
                }
                r => {
                    let r = (r - 1) as usize;
                    if let Some(v) = ctx.bcast_recv_map(cy, brx[r], |&v| v) {
                        received[r].push(v);
                    }
                }
            }
        }
        for (r, recv) in received.iter().enumerate() {
            for (i, &v) in recv.iter().enumerate() {
                assert_eq!(v, i as u64, "case {case} reader {r}");
            }
            assert!(recv.len() as u64 <= sent, "case {case} reader {r}");
        }
        let stats = ctx.channel_stats();
        assert_eq!(stats.len(), readers);
        for (r, st) in stats.iter().enumerate() {
            assert_eq!(st.pushes, sent, "case {case} reader {r}");
            assert_eq!(st.pops, received[r].len() as u64, "case {case} reader {r}");
            assert!(st.occupancy <= capacity, "case {case} reader {r}");
        }
    }
}

/// A kernel that parks on its first step and stays parked until one of
/// its subscriptions fires — the probe for "did this operation wake its
/// subscribers".
struct Sleeper(WakeSet);

impl Kernel for Sleeper {
    fn name(&self) -> &str {
        "sleeper"
    }
    fn step(&mut self, _cy: Cycle, _ctx: &mut SimContext) -> Progress {
        Progress::Sleep
    }
    fn wake_set(&self) -> WakeSet {
        self.0.clone()
    }
}

/// A channel bank of N members is N one-member banks created at the same
/// arena position: every operation returns what the lone member's would,
/// `channel_stats()` reads the same rows (names, order, every counter),
/// `channel_aggregate()` the same totals, and one `bank_with` closure wakes
/// the bank's push (pop) subscribers exactly when some member was pushed
/// into (popped from) — what subscriptions to all N one-member banks would
/// do.
#[test]
fn channel_bank_matches_one_member_banks_at_the_same_position() {
    let mut s = 0xba4cu64;
    for case in 0..96 {
        let n = 1 + (splitmix(&mut s) % 9) as usize;
        let first = (splitmix(&mut s) % 20) as usize;
        let capacity = 1 + (splitmix(&mut s) % 5) as usize;

        let mut banked = Engine::new();
        let _ = fifo::<u64>(&mut banked, "head", 2);
        let bank = banked.channel_bank::<u64>("m", first, n, capacity);
        let _ = fifo::<u64>(&mut banked, "tail", 2);
        assert_eq!(bank.members(), n);
        let on_push = banked.add_kernel(Sleeper(WakeSet::new().after_push_on_bank(bank)));
        let on_pop = banked.add_kernel(Sleeper(WakeSet::new().after_pop_on_bank(bank)));

        let mut single = Engine::new();
        let _ = fifo::<u64>(&mut single, "head", 2);
        let members: Vec<_> = (0..n)
            .map(|i| single.channel_bank::<u64>("m", first + i, 1, capacity))
            .collect();
        let _ = fifo::<u64>(&mut single, "tail", 2);
        let (mut push_subs, mut pop_subs) = (WakeSet::new(), WakeSet::new());
        for &member in &members {
            push_subs = push_subs.after_push_on_bank(member);
            pop_subs = pop_subs.after_pop_on_bank(member);
        }
        let single_on_push = single.add_kernel(Sleeper(push_subs));
        let single_on_pop = single.add_kernel(Sleeper(pop_subs));

        for round in 0..80 {
            // One engine cycle parks every sleeper again.
            banked.step();
            single.step();
            let cy = banked.cycle();
            // One closure = a random batch of member operations.
            let ops: Vec<(bool, usize, u64)> = (0..splitmix(&mut s) % 6)
                .map(|_| {
                    let roll = splitmix(&mut s);
                    (roll.is_multiple_of(2), (roll / 2) as usize % n, roll >> 32)
                })
                .collect();
            let banked_results = banked.context_mut().bank_with(bank, |view| {
                assert_eq!(view.members(), n);
                let results: Vec<Option<u64>> = ops
                    .iter()
                    .map(|&(send, i, v)| {
                        if send {
                            assert_eq!(view.can_send(i), view.room_mask() >> i & 1 == 1);
                            view.try_send(cy, i, v).err().map(|e| e.0)
                        } else {
                            view.try_recv(cy, i)
                        }
                    })
                    .collect();
                results
            });
            let ctx = single.context_mut();
            let single_results: Vec<Option<u64>> = ops
                .iter()
                .map(|&(is_send, i, v)| {
                    if is_send {
                        send(ctx, cy, members[i], v).err().map(|e| e.0)
                    } else {
                        recv(ctx, cy, members[i])
                    }
                })
                .collect();
            let at = format!("case {case} round {round}");
            assert_eq!(banked_results, single_results, "{at}");
            assert_eq!(banked.channel_stats(), single.channel_stats(), "{at}");
            assert_eq!(
                banked.context().channel_aggregate(),
                single.context().channel_aggregate(),
                "{at}"
            );
            for (i, &member) in members.iter().enumerate() {
                let (b, p) = (banked.context(), single.context());
                assert_eq!(b.bank_is_empty(bank, i), p.bank_is_empty(member, 0), "{at}");
                assert_eq!(b.bank_can_send(bank, i), p.bank_can_send(member, 0), "{at}");
                assert_eq!(
                    b.bank_recv_visible_at(bank, i),
                    p.bank_recv_visible_at(member, 0),
                    "{at}"
                );
            }
            assert_eq!(
                banked.kernel_awake(on_push),
                single.kernel_awake(single_on_push),
                "{at}: push wake"
            );
            assert_eq!(
                banked.kernel_awake(on_pop),
                single.kernel_awake(single_on_pop),
                "{at}: pop wake"
            );
            // The maintained active-set size agrees with the flags (checked
            // inside `active_kernels` in debug builds): one wake per event.
            assert_eq!(banked.active_kernels(), single.active_kernels(), "{at}");
        }
    }
}

/// `bcast_recv_taps` over an arbitrary `want` mask, on items with random
/// tags, is the same taps served by individual `bcast_recv_map` calls in
/// index order on untagged items: same items popped by the same taps, same
/// cursors and per-tap pops, same front release (observed as producer-side
/// room), and the pop wake fires exactly when a tap consumed — while the
/// callback runs for exactly the popped taps the item is tagged for.
#[test]
fn batched_tap_receive_matches_individual_receives() {
    let mut s = 0x7a95u64;
    for case in 0..96 {
        let readers = 1 + (splitmix(&mut s) % 9) as usize;
        let capacity = 1 + (splitmix(&mut s) % 6) as usize;
        let build = || {
            let mut engine = Engine::new();
            let (tx, taps) = engine.broadcast_channel::<(u64, u64)>("w", readers, capacity);
            let on_pop = engine.add_kernel(Sleeper(WakeSet::new().after_pop_on_bcast(tx)));
            (engine, tx, taps, on_pop)
        };
        let (mut batched, btx, btaps, b_on_pop) = build();
        let (mut single, stx, staps, s_on_pop) = build();
        let group = btaps[0].group();
        for round in 0..120 {
            batched.step();
            single.step();
            let cy = batched.cycle();
            let at = format!("case {case} round {round}");
            for _ in 0..splitmix(&mut s) % 3 {
                let v = splitmix(&mut s);
                let tag = [u64::MAX, 0, v][v as usize % 3];
                let (b, t) = (batched.context_mut(), single.context_mut());
                assert_eq!(
                    b.bcast_try_send_tagged(cy, btx, tag, (v, tag)).is_ok(),
                    t.bcast_try_send(cy, stx, (v, tag)).is_ok(),
                    "{at}"
                );
            }
            let want = splitmix(&mut s) & ((1 << readers) - 1);
            let mut got = Vec::new();
            let (popped, buffered) =
                batched
                    .context_mut()
                    .bcast_recv_taps(cy, group, want, |r, &item| got.push((r, item)));
            let ctx = single.context_mut();
            let expect: Vec<(usize, (u64, u64))> = (0..readers)
                .filter(|r| want >> r & 1 == 1)
                .filter_map(|r| ctx.bcast_recv_map(cy, staps[r], |&v| v).map(|v| (r, v)))
                .collect();
            assert_eq!(
                popped,
                expect.iter().fold(0, |m, &(r, _)| m | 1 << r),
                "{at}: popped mask"
            );
            let tagged = expect.iter().filter(|(r, (_, tag))| tag >> r & 1 == 1);
            assert!(got.iter().eq(tagged), "{at}: callbacks = popped ∩ tagged");
            let still: u64 = (0..readers)
                .filter(|&r| !ctx.bcast_is_empty(staps[r]))
                .fold(0, |m, r| m | 1 << r);
            assert_eq!(buffered, still, "{at}: buffered mask");
            assert_eq!(batched.channel_stats(), single.channel_stats(), "{at}");
            assert_eq!(
                batched.context().bcast_can_send(btx),
                single.context().bcast_can_send(stx),
                "{at}: front release"
            );
            assert_eq!(
                batched.kernel_awake(b_on_pop),
                single.kernel_awake(s_on_pop),
                "{at}: pop wake"
            );
            assert_eq!(batched.kernel_awake(b_on_pop), popped != 0, "{at}");
            assert_eq!(batched.active_kernels(), single.active_kernels(), "{at}");
        }
    }
}

/// A bank's `ready_mask(cy)` and `nonempty_mask` agree with the per-member
/// probes under random pushes and pops (each push visible one cycle later):
/// bit `i` is set exactly when member `i` has a visible head — and then
/// `try_recv(cy, i)` pops it — resp. when member `i` is not empty.
#[test]
fn bank_masks_match_member_probes() {
    let mut s = 0x3a5cu64;
    for case in 0..64 {
        let n = 1 + (splitmix(&mut s) % 12) as usize;
        let capacity = 1 + (splitmix(&mut s) % 4) as usize;
        let mut engine = Engine::new();
        let bank = engine.channel_bank::<u64>("m", 0, n, capacity);
        let ctx = engine.context_mut();
        for round in 0..300u64 {
            let cy = round / 3;
            let (ready, nonempty) = ctx.bank_with(bank, |v| (v.ready_mask(cy), v.nonempty_mask()));
            for i in 0..n {
                let probes = (
                    ctx.bank_recv_visible_at(bank, i).is_some_and(|at| at <= cy),
                    !ctx.bank_is_empty(bank, i),
                );
                let masks = (ready >> i & 1 == 1, nonempty >> i & 1 == 1);
                assert_eq!(masks, probes, "case {case} round {round} member {i}");
            }
            let roll = splitmix(&mut s);
            let i = (roll / 2) as usize % n;
            ctx.bank_with(bank, |v| {
                if roll.is_multiple_of(2) {
                    let _ = v.try_send(cy, i, roll);
                } else {
                    let popped = v.try_recv(cy, i).is_some();
                    assert_eq!(popped, ready >> i & 1 == 1, "case {case} round {round}");
                }
            });
        }
    }
}

/// The allocation-free `channel_aggregate` equals a fold of the full
/// per-channel `channel_stats` snapshot, across random mixes of one-member
/// banks and broadcast channels under random traffic.
#[test]
fn channel_aggregate_matches_stats_fold() {
    let mut s = 0xa66au64;
    for case in 0..64 {
        let mut engine = Engine::new();
        let fifos = 1 + (splitmix(&mut s) % 4) as usize;
        let bcast = (splitmix(&mut s) % 3) as usize;
        let mut chs = Vec::new();
        for i in 0..fifos {
            let capacity = 1 + (splitmix(&mut s) % 7) as usize;
            chs.push(fifo::<u64>(&mut engine, &format!("p{i}"), capacity));
        }
        let mut btxs = Vec::new();
        let mut brxs = Vec::new();
        for i in 0..bcast {
            let capacity = 1 + (splitmix(&mut s) % 7) as usize;
            let readers = 1 + (splitmix(&mut s) % 4) as usize;
            let (btx, brx) = engine.broadcast_channel::<u64>(&format!("b{i}"), readers, capacity);
            btxs.push(btx);
            brxs.push(brx);
        }
        let ctx = engine.context_mut();
        for cy in 0..300u64 {
            let roll = splitmix(&mut s);
            match roll % 4 {
                0 => {
                    let _ = send(ctx, cy, chs[roll as usize / 4 % fifos], cy);
                }
                1 => {
                    let _ = recv(ctx, cy, chs[roll as usize / 4 % fifos]);
                }
                2 if bcast > 0 => {
                    let _ = ctx.bcast_try_send(cy, btxs[roll as usize / 4 % bcast], cy);
                }
                _ if bcast > 0 => {
                    let taps = &brxs[roll as usize / 4 % bcast];
                    let _ = ctx.bcast_recv_map(cy, taps[roll as usize / 8 % taps.len()], |&v| v);
                }
                _ => {}
            }
        }
        let stats = ctx.channel_stats();
        let agg = ctx.channel_aggregate();
        assert_eq!(agg.channels, stats.len(), "case {case}");
        assert_eq!(
            agg.pushes,
            stats.iter().map(|c| c.pushes).sum::<u64>(),
            "case {case}"
        );
        assert_eq!(
            agg.pops,
            stats.iter().map(|c| c.pops).sum::<u64>(),
            "case {case}"
        );
        assert_eq!(
            agg.full_stalls,
            stats.iter().map(|c| c.full_stalls).sum::<u64>(),
            "case {case}"
        );
        assert_eq!(
            agg.max_occupancy,
            stats.iter().map(|c| c.max_occupancy).max().unwrap_or(0),
            "case {case}"
        );
    }
}
