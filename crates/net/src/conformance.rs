//! The [`Transport`] conformance suite: one set of generic checks that
//! every backend passes unchanged. `conformance_suite!(mesh)` instantiates
//! it as `#[test]`s in a backend's test module, where `mesh(n, tuning)`
//! builds a connected `n`-rank mesh.

use std::time::{Duration, Instant};

use crate::error::NetError;
use crate::protocol::MAX_PAYLOAD;
use crate::transport::{NetTuning, Rank, Transport};

/// Builds a connected mesh of `n` endpoints.
pub type Mesh<T> = fn(usize, NetTuning) -> Vec<T>;

/// Short collective deadline for the stall tests (set-up keeps its own).
fn short() -> NetTuning {
    NetTuning {
        collective_timeout: Duration::from_millis(100),
        ..NetTuning::default()
    }
}

/// Polls `t` until a frame arrives; panics after 10 s.
fn recv<T: Transport>(t: &mut T) -> (Rank, Vec<u8>) {
    let start = Instant::now();
    loop {
        if let Some(got) = t.try_recv().unwrap() {
            return got;
        }
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "frame never arrived"
        );
        std::thread::yield_now();
    }
}

/// Runs `f` on every endpoint of the mesh, one thread each, and returns
/// the results in rank order.
fn on_each<T: Transport, R: Send>(mesh: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let handles: Vec<_> = mesh.into_iter().map(|t| s.spawn(|| f(t))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Termination rounds until quiescent; returns how many it took.
fn rounds_to_quiescence<T: Transport>(t: &mut T) -> u64 {
    let mut rounds = 1;
    while !t.termination_round().unwrap() {
        rounds += 1;
    }
    rounds
}

pub fn per_peer_fifo_order<T: Transport>(mesh: Mesh<T>) {
    let mut m = mesh(3, NetTuning::default());
    // Ranks 0 and 2 interleave sends to rank 1, which also sends to itself.
    for i in 0..50u8 {
        for (src, t) in m.iter_mut().enumerate() {
            t.send(1, &[src as u8, i]).unwrap();
        }
    }
    m[0].flush().unwrap();
    m[2].flush().unwrap();
    let mut next = [0u8; 3];
    for _ in 0..150 {
        let (src, bytes) = recv(&mut m[1]);
        assert_eq!(
            bytes,
            vec![src as u8, next[src]],
            "out of order from rank {src}"
        );
        next[src] += 1;
    }
    assert_eq!(m[1].try_recv().unwrap(), None);
    assert_eq!(m[1].stats().frames_recv(), 150);
}

pub fn self_send_roundtrip<T: Transport>(mesh: Mesh<T>) {
    let mut t = mesh(1, NetTuning::default()).remove(0);
    t.send(0, b"abc").unwrap();
    assert_eq!(t.try_recv().unwrap(), Some((0, b"abc".to_vec())));
    assert_eq!(t.try_recv().unwrap(), None);
    assert_eq!((t.stats().frames_sent(), t.stats().frames_recv()), (1, 1));
    assert_eq!(rounds_to_quiescence(&mut t), 2);
}

pub fn single_rank_terminates_after_two_rounds<T: Transport>(mesh: Mesh<T>) {
    let mut t = mesh(1, NetTuning::default()).remove(0);
    assert!(!t.termination_round().unwrap());
    assert!(t.termination_round().unwrap());
    assert_eq!(t.stats().term_rounds, 2);
    t.barrier().unwrap();
    assert_eq!(t.stats().barriers, 1);
}

pub fn zero_traffic_terminates_in_two_rounds<T: Transport>(mesh: Mesh<T>) {
    let got = on_each(mesh(3, NetTuning::default()), |mut t| {
        (rounds_to_quiescence(&mut t), t.last_global_totals())
    });
    assert!(got.iter().all(|&g| g == (2, Some((0, 0)))), "{got:?}");
}

pub fn two_ranks_exchange_and_terminate<T: Transport>(mesh: Mesh<T>) {
    let got = on_each(mesh(2, NetTuning::default()), |mut t| {
        let (me, peer) = (t.rank(), 1 - t.rank());
        t.send(peer, &[me as u8]).unwrap();
        assert_eq!(recv(&mut t), (peer, vec![peer as u8]));
        rounds_to_quiescence(&mut t);
        t.barrier().unwrap();
        (t.stats().frames_sent(), t.stats().frames_recv())
    });
    assert_eq!(got, vec![(1, 1), (1, 1)]);
}

pub fn mesh_exchange_and_terminate<T: Transport>(mesh: Mesh<T>) {
    let got = on_each(mesh(3, NetTuning::default()), |mut t| {
        let (me, n) = (t.rank(), t.num_ranks());
        for dest in 0..n {
            t.send(dest, format!("hi from {me} to {dest}").as_bytes())
                .unwrap();
        }
        t.flush().unwrap();
        let mut got: Vec<_> = (0..n).map(|_| recv(&mut t)).collect();
        got.sort();
        for (i, (src, bytes)) in got.iter().enumerate() {
            assert_eq!(
                (*src, bytes.as_slice()),
                (i, format!("hi from {i} to {me}").as_bytes())
            );
        }
        let rounds = rounds_to_quiescence(&mut t);
        t.barrier().unwrap();
        (t.stats().frames_sent(), t.stats().frames_recv(), rounds)
    });
    assert!(
        got.iter().all(|&g| g == got[0]),
        "ranks decided in different rounds: {got:?}"
    );
    assert_eq!((got[0].0, got[0].1), (3, 3));
}

pub fn repeated_barriers_complete<T: Transport>(mesh: Mesh<T>) {
    let got = on_each(mesh(3, NetTuning::default()), |mut t| {
        for _ in 0..4 {
            t.barrier().unwrap();
        }
        t.stats().barriers
    });
    assert_eq!(got, vec![4, 4, 4]);
}

pub fn skewed_ranks_still_terminate<T: Transport>(mesh: Mesh<T>) {
    // Rank 0 sends a burst late; rank 1 spins termination rounds in the
    // meantime and must not declare quiescence before the burst lands.
    let got = on_each(mesh(2, NetTuning::default()), |mut t| {
        if t.rank() == 0 {
            std::thread::sleep(Duration::from_millis(50));
            for i in 0..100u32 {
                t.send(1, &i.to_le_bytes()).unwrap();
            }
        }
        let mut recvd = 0u64;
        loop {
            while t.try_recv().unwrap().is_some() {
                recvd += 1;
            }
            if t.termination_round().unwrap() {
                return recvd;
            }
        }
    });
    assert_eq!(got, vec![0, 100]);
}

pub fn frame_in_flight_blocks_quiescence<T: Transport>(mesh: Mesh<T>) {
    // A data frame sent but not yet pulled when the rounds start: balanced
    // totals are impossible until rank 1 pulls it, then two more rounds
    // confirm — on both ranks, in the same round.
    let got = on_each(mesh(2, NetTuning::default()), |mut t| {
        if t.rank() == 0 {
            t.send(1, b"late").unwrap();
        }
        let early = [
            t.termination_round().unwrap(),
            t.termination_round().unwrap(),
        ];
        if t.rank() == 1 {
            assert_eq!(recv(&mut t), (0, b"late".to_vec()));
        }
        (early, 2 + rounds_to_quiescence(&mut t))
    });
    assert_eq!(got, vec![([false, false], 4), ([false, false], 4)]);
}

pub fn stalled_termination_round_times_out<T: Transport>(mesh: Mesh<T>) {
    // Rank 1 stays alive but never joins the round.
    let mut m = mesh(2, short());
    let err = m[0].termination_round().unwrap_err();
    assert!(
        matches!(err, NetError::Timeout { ref phase, waited_ms, .. }
            if phase == "termination" && waited_ms >= 100),
        "{err}"
    );
}

pub fn abandoned_barrier_times_out_with_typed_error<T: Transport>(mesh: Mesh<T>) {
    let mut m = mesh(2, short());
    let err = m[0].barrier().unwrap_err();
    assert!(
        matches!(err, NetError::Timeout { ref phase, waited_ms, .. }
            if phase == "barrier" && waited_ms >= 100),
        "{err}"
    );
}

pub fn dead_peer_fails_barrier_with_its_rank<T: Transport>(mesh: Mesh<T>) {
    let mut m = mesh(2, NetTuning::default());
    drop(m.pop()); // rank 1 dies
    let start = Instant::now();
    let err = m[0]
        .barrier()
        .expect_err("barrier must not complete against a dead peer");
    assert_eq!(err.rank(), Some(1), "{err}");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "fast-fail, not the deadline"
    );
    assert!(m[0].peer_dead(1) && m[0].first_dead_peer() == Some(1));
}

pub fn dead_peer_fails_termination_round_fast<T: Transport>(mesh: Mesh<T>) {
    let mut m = mesh(2, NetTuning::default());
    drop(m.pop());
    let start = Instant::now();
    let err = m[0].termination_round().unwrap_err();
    assert!(matches!(err, NetError::PeerDisconnected { rank: 1, .. }) || err.rank() == Some(1));
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "fast-fail, not the deadline"
    );
}

pub fn oversized_send_is_a_typed_error<T: Transport>(mesh: Mesh<T>) {
    let mut m = mesh(2, NetTuning::default());
    let err = m[0].send(1, &vec![7; MAX_PAYLOAD + 1]).unwrap_err();
    assert_eq!(
        err,
        NetError::OversizedFrame {
            rank: 0,
            len: MAX_PAYLOAD as u32 + 1,
            max: MAX_PAYLOAD as u32
        }
    );
    assert_eq!(
        m[0].stats().frames_sent(),
        0,
        "a refused send is not counted"
    );
    // Exactly at the bound is a legal frame on every backend.
    let at_bound = vec![7; MAX_PAYLOAD];
    let (a, b) = m.split_at_mut(1);
    std::thread::scope(|s| {
        s.spawn(|| {
            a[0].send(1, &at_bound).unwrap();
            a[0].flush().unwrap();
        });
        assert_eq!(recv(&mut b[0]), (0, at_bound.clone()));
    });
}

/// Instantiates the suite as `#[test]`s over `$mesh: fn(usize, NetTuning)
/// -> Vec<impl Transport>`.
macro_rules! conformance_suite {
    ($mesh:expr) => {
        conformance_suite!(@tests $mesh;
            per_peer_fifo_order,
            self_send_roundtrip,
            single_rank_terminates_after_two_rounds,
            zero_traffic_terminates_in_two_rounds,
            two_ranks_exchange_and_terminate,
            mesh_exchange_and_terminate,
            repeated_barriers_complete,
            skewed_ranks_still_terminate,
            frame_in_flight_blocks_quiescence,
            stalled_termination_round_times_out,
            abandoned_barrier_times_out_with_typed_error,
            dead_peer_fails_barrier_with_its_rank,
            dead_peer_fails_termination_round_fast,
            oversized_send_is_a_typed_error,
        );
    };
    (@tests $mesh:expr; $($name:ident,)*) => {
        $(
            #[test]
            fn $name() {
                $crate::conformance::$name($mesh);
            }
        )*
    };
}
