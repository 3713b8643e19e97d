//! Concurrency and fault contracts of the serving stack, over real
//! loopback sockets:
//!
//! * **Soak** — N client threads driving one coordinator produce results
//!   and RUNFP chains equal to the same probes run sequentially, including
//!   when a shard is made deterministically slow (so completions reorder).
//! * **Overload** — a saturated worker pool sheds with typed `OVERLOADED`
//!   frames, never silently, and the admission counters account for every
//!   request exactly: offered = accepted + overloaded.
//! * **Retry budget** — a pipelined send that is shed is attempt 0 of the
//!   coordinator's retry budget, and a search that recovers from a shed
//!   says so in its slow-log exemplar.
//! * **Duplicate ids** — a request id already in flight on a connection is
//!   rejected with a typed error; the connection survives.
//! * **Churn** — short-lived connections do not accumulate dead reader
//!   threads in the accept loop.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fp_core::geometry::{Direction, Point, RigidMotion, Vector};
use fp_core::minutia::{Minutia, MinutiaKind};
use fp_core::rng::SeedTree;
use fp_core::template::Template;
use fp_index::IndexConfig;
use fp_index::{CandidateIndex, ShardError};
use fp_match::PairTableMatcher;
use fp_serve::wire::{code, read_frame_with, write_frame_with, Frame};
use fp_serve::{Coordinator, MuxConn, RetryPolicy, ShardServer, SlowLog, Ticket};
use fp_telemetry::Telemetry;
use rand::Rng;

fn synthetic_template(seed: u64, n: usize) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x5D]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    let mut attempts = 0;
    while minutiae.len() < n && attempts < 10_000 {
        attempts += 1;
        let pos = Point::new(
            rng.gen::<f64>() * 16.0 - 8.0,
            rng.gen::<f64>() * 20.0 - 10.0,
        );
        if minutiae.iter().any(|m| m.pos.distance(&pos) < 1.4) {
            continue;
        }
        let kind = if rng.gen::<bool>() {
            MinutiaKind::RidgeEnding
        } else {
            MinutiaKind::Bifurcation
        };
        minutiae.push(Minutia::new(
            pos,
            Direction::from_radians(rng.gen::<f64>() * std::f64::consts::TAU),
            kind,
            rng.gen::<f64>() * 0.5 + 0.5,
        ));
    }
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
}

fn second_capture(template: &Template, seed: u64) -> Template {
    let mut rng = SeedTree::new(seed).child(&[0x5E]).rng();
    let mut minutiae: Vec<Minutia> = Vec::new();
    for m in template.minutiae() {
        if rng.gen::<f64>() <= 0.08 {
            continue;
        }
        minutiae.push(Minutia::new(
            Point::new(
                m.pos.x + fp_core::dist::normal(&mut rng, 0.0, 0.12),
                m.pos.y + fp_core::dist::normal(&mut rng, 0.0, 0.12),
            ),
            m.direction
                .rotated(fp_core::dist::normal(&mut rng, 0.0, 0.05)),
            m.kind,
            m.reliability,
        ));
    }
    let motion = RigidMotion::new(
        Direction::from_radians(fp_core::dist::normal(&mut rng, 0.0, 0.15)),
        Vector::new(
            fp_core::dist::normal(&mut rng, 0.0, 1.0),
            fp_core::dist::normal(&mut rng, 0.0, 1.0),
        ),
    );
    Template::builder(500.0)
        .capture_window_mm(20.0, 24.0)
        .extend(minutiae)
        .build()
        .unwrap()
        .transformed(&motion)
}

fn gallery(seed: u64, n: usize) -> Vec<Template> {
    (0..n)
        .map(|i| synthetic_template(seed * 1_000 + i as u64, 16 + (i * 7) % 16))
        .collect()
}

/// Byte-level equality of two search results: same candidates in the same
/// order with bit-identical scores, same gallery size.
fn assert_same_result(got: &fp_index::SearchResult, want: &fp_index::SearchResult, probe: usize) {
    assert_eq!(got.gallery_len(), want.gallery_len(), "probe {probe}");
    assert_eq!(
        got.candidates().len(),
        want.candidates().len(),
        "probe {probe}: shortlist lengths differ"
    );
    for (rank, (g, w)) in got.candidates().iter().zip(want.candidates()).enumerate() {
        assert_eq!(g.id, w.id, "probe {probe} rank {rank}: id differs");
        assert_eq!(
            g.score.value().to_bits(),
            w.score.value().to_bits(),
            "probe {probe} rank {rank}: score bits differ"
        );
    }
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(5),
        cap: Duration::from_millis(20),
        seed: 7,
    }
}

/// N threads sharing one coordinator must produce exactly the results a
/// sequential run produces — per-probe candidate lists byte-identical, and
/// the commutative RUNFP chain equal — even when one shard answers slowly
/// (forcing completions to rejoin out of order).
#[test]
fn concurrent_searches_equal_sequential_including_slow_shard() {
    const THREADS: usize = 4;
    const SHARDS: usize = 2;
    let subjects = gallery(31, 24);
    let probes: Vec<Template> = subjects
        .iter()
        .take(12)
        .enumerate()
        .map(|(i, t)| second_capture(t, 9_000 + i as u64))
        .collect();

    // Two independent topologies over the same gallery: one driven
    // concurrently (with shard 0 deterministically slowed), one driven
    // sequentially as the ground truth.
    let mut addrs: Vec<Vec<SocketAddr>> = Vec::new();
    let mut handles = Vec::new();
    let mut delays = Vec::new();
    for topo in 0..2 {
        let mut topo_addrs = Vec::new();
        for shard in 0..SHARDS {
            let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
            topo_addrs.push(server.local_addr().unwrap());
            if topo == 0 && shard == 0 {
                delays.push(server.delay_stage());
            }
            handles.push(server.spawn());
        }
        addrs.push(topo_addrs);
    }

    let config = IndexConfig::default();
    let deadline = Duration::from_secs(10);
    let mut concurrent = Coordinator::connect(&addrs[0], config, deadline, fast_retry()).unwrap();
    let mut sequential = Coordinator::connect(&addrs[1], config, deadline, fast_retry()).unwrap();
    concurrent.enroll_all(&subjects).unwrap();
    sequential.enroll_all(&subjects).unwrap();

    // Slow shard 0 of the concurrent topology *after* enrollment, so only
    // the searches under test feel it.
    delays[0].store(20, Ordering::Relaxed);

    let sequential_results: Vec<_> = probes
        .iter()
        .map(|p| sequential.search(p).unwrap())
        .collect();

    let mut concurrent_results: Vec<Option<fp_index::SearchResult>> = vec![None; probes.len()];
    let chunk = probes.len() / THREADS;
    std::thread::scope(|scope| {
        for (t, slot_chunk) in concurrent_results.chunks_mut(chunk).enumerate() {
            let coordinator = &concurrent;
            let probes = &probes;
            scope.spawn(move || {
                for (j, slot) in slot_chunk.iter_mut().enumerate() {
                    let i = t * chunk + j;
                    *slot = Some(coordinator.search(&probes[i]).unwrap());
                }
            });
        }
    });

    for (i, (got, want)) in concurrent_results
        .iter()
        .zip(&sequential_results)
        .enumerate()
    {
        assert_same_result(got.as_ref().unwrap(), want, i);
    }
    // The commutative run chain lands on the same value no matter the
    // interleaving — and matches the sequential baseline exactly.
    assert_eq!(
        concurrent.run_fingerprint().value,
        sequential.run_fingerprint().value
    );
    assert_eq!(concurrent.run_fingerprint().searches, probes.len() as u64);
    // Both topologies' shards still agree with what was decoded.
    concurrent.verify_fingerprints().unwrap();
    sequential.verify_fingerprints().unwrap();

    concurrent.shutdown_all().unwrap();
    sequential.shutdown_all().unwrap();
    for handle in handles {
        handle.join();
    }
}

/// Driving a 1-worker, watermark-1 pool far past capacity: every offered
/// request is answered — with real work or a typed `OVERLOADED` frame —
/// within the deadline, and the admission counters balance exactly.
#[test]
fn overload_sheds_typed_frames_with_exact_accounting() {
    const BURST: usize = 12;
    let telemetry = Telemetry::enabled();
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
        .unwrap()
        .with_telemetry(&telemetry)
        .with_pool(1, 1);
    let addr = server.local_addr().unwrap();
    let delay = server.delay_stage();
    let handle = server.spawn();
    // Each accepted stage-1 pins the single worker for 50ms, so a fast
    // burst must overflow the watermark-1 queue.
    delay.store(50, Ordering::Relaxed);

    let conn = MuxConn::new(addr, Duration::from_secs(10));
    let probe = synthetic_template(77, 12);
    let offered_deadline = Instant::now() + Duration::from_secs(10);
    let tickets: Vec<_> = (0..BURST)
        .map(|_| {
            conn.begin(&Frame::StageOne {
                trace: None,
                probe: probe.clone(),
            })
            .expect("begin")
            .0
        })
        .collect();

    let mut served = 0u64;
    let mut shed = 0u64;
    for ticket in tickets {
        let (response, _) = conn.finish(ticket).expect("every request is answered");
        assert!(
            Instant::now() < offered_deadline,
            "responses must arrive within the deadline"
        );
        match response {
            Frame::StageOneOk { .. } => served += 1,
            Frame::Error { code: c, detail } => {
                assert_eq!(c, code::OVERLOADED, "unexpected error: {detail}");
                shed += 1;
            }
            other => panic!("unexpected frame '{}'", other.kind()),
        }
    }
    // Nothing was silently dropped: every request in the burst came back.
    assert_eq!(served + shed, BURST as u64);
    assert!(
        shed > 0,
        "burst of {BURST} must overflow a watermark-1 queue"
    );
    assert!(served > 0, "the worker must have served something");

    // The admission ledger balances exactly at quiescence.
    let snapshot = telemetry.snapshot();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0);
    assert_eq!(counter("serve.offered"), BURST as u64);
    assert_eq!(counter("serve.accepted"), served);
    assert_eq!(counter("serve.overloaded"), shed);
    assert_eq!(
        counter("serve.offered"),
        counter("serve.accepted") + counter("serve.overloaded"),
        "offered must equal accepted + overloaded"
    );

    drop(conn);
    handle.stop();
    handle.join();
}

/// Reads one counter from a telemetry snapshot (0 when never registered).
fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry
        .snapshot()
        .counters
        .get(name)
        .copied()
        .unwrap_or(0)
}

/// Saturates a `with_pool(1, 1)` shard whose worker `delay_stage()` pins:
/// stage-1 fillers go out on `conn` one at a time until the shard has
/// accepted two of them (one running, one holding the single queue slot)
/// and shed the latest. Until the running filler's delay ends, the next
/// request is shed too. Returns the fillers' tickets.
fn saturate(conn: &MuxConn, server: &Telemetry) -> Vec<Ticket> {
    let probe = synthetic_template(77, 12);
    let deadline = Instant::now() + Duration::from_secs(10);
    let accepted_before = counter(server, "serve.accepted");
    let mut tickets = Vec::new();
    loop {
        let (offered, shed) = (
            counter(server, "serve.offered"),
            counter(server, "serve.overloaded"),
        );
        let filler = Frame::StageOne {
            probe: probe.clone(),
            trace: None,
        };
        tickets.push(conn.begin(&filler).expect("begin filler").0);
        // Wait until the shard has admitted or shed this filler.
        while counter(server, "serve.offered") == offered
            || counter(server, "serve.offered")
                != counter(server, "serve.accepted") + counter(server, "serve.overloaded")
        {
            assert!(Instant::now() < deadline, "shard never took the filler");
            std::thread::sleep(Duration::from_millis(1));
        }
        let accepted = counter(server, "serve.accepted") - accepted_before;
        if accepted >= 2 && counter(server, "serve.overloaded") > shed {
            return tickets;
        }
    }
}

/// A 1-shard topology over a `with_pool(1, 1)` server, for shed tests.
struct ShedTopology {
    handle: fp_serve::server::ServerHandle,
    addr: SocketAddr,
    /// The server's telemetry (admission ledger).
    server: Telemetry,
    /// The server's stage delay, in milliseconds.
    delay: Arc<AtomicU64>,
    /// The coordinator's telemetry (`serve.*` client counters).
    client: Telemetry,
    coordinator: Coordinator,
}

impl ShedTopology {
    fn new(retry: RetryPolicy, gallery: &[Template]) -> ShedTopology {
        let server = Telemetry::enabled();
        let shard = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0")
            .unwrap()
            .with_telemetry(&server)
            .with_pool(1, 1);
        let addr = shard.local_addr().unwrap();
        let delay = shard.delay_stage();
        let handle = shard.spawn();
        let client = Telemetry::enabled();
        let config = IndexConfig::default();
        let mut coordinator = Coordinator::connect(&[addr], config, Duration::from_secs(10), retry)
            .unwrap()
            .with_telemetry(&client);
        coordinator.enroll_all(gallery).unwrap();
        ShedTopology {
            handle,
            addr,
            server,
            delay,
            client,
            coordinator,
        }
    }

    /// Answers the fillers and stops the server.
    fn finish(self, side: MuxConn, fillers: Vec<Ticket>) {
        self.delay.store(0, Ordering::Relaxed);
        for ticket in fillers {
            let _ = side.finish(ticket);
        }
        self.handle.stop();
        self.handle.join();
    }
}

/// The pipelined send is attempt 0 of the retry budget: with one attempt
/// allowed, a search whose stage-1 request is shed fails after exactly
/// one send — no immediate un-counted resend.
#[test]
fn shed_pipelined_send_spends_the_whole_one_attempt_budget() {
    let retry = RetryPolicy {
        attempts: 1,
        ..fast_retry()
    };
    let subjects = gallery(41, 6);
    let topo = ShedTopology::new(retry, &subjects);
    topo.delay.store(500, Ordering::Relaxed);
    let side = MuxConn::new(topo.addr, Duration::from_secs(10));
    let fillers = saturate(&side, &topo.server);

    let overloaded = counter(&topo.server, "serve.overloaded");
    let requests = counter(&topo.client, "serve.requests");
    let probe = second_capture(&subjects[2], 4_141);
    match topo.coordinator.search(&probe) {
        Err(ShardError::Unavailable { shard, detail }) => {
            assert_eq!(shard, 0);
            assert!(detail.contains("1 attempts exhausted"), "detail: {detail}");
        }
        Err(other) => panic!("expected Unavailable, got {other}"),
        Ok(_) => panic!("a saturated shard must not serve the search"),
    }
    assert_eq!(counter(&topo.server, "serve.overloaded") - overloaded, 1);
    assert_eq!(counter(&topo.client, "serve.requests") - requests, 1);
    assert_eq!(counter(&topo.client, "serve.retries"), 0);
    assert_eq!(counter(&topo.client, "serve.shed"), 1);
    topo.finish(side, fillers);
}

/// A search whose pipelined stage-1 is shed, then served on a backed-off
/// retry, returns the in-process candidate list, and its slow-log
/// exemplar marks the shard as retried and shed.
#[test]
fn shed_then_retried_search_matches_in_process_and_marks_the_exemplar() {
    let retry = RetryPolicy {
        attempts: 3,
        base: Duration::from_millis(400),
        cap: Duration::from_secs(1),
        seed: 7,
    };
    let subjects = gallery(43, 12);
    let mut topo = ShedTopology::new(retry, &subjects);
    let slowlog = Arc::new(SlowLog::with_threshold_ns(&topo.client, 0));
    topo.coordinator = topo.coordinator.with_slowlog(Arc::clone(&slowlog));
    let mut local = CandidateIndex::new(PairTableMatcher::default());
    local.enroll_all(&subjects);

    // The fillers drain within two delays; the first backoff is longer.
    topo.delay.store(100, Ordering::Relaxed);
    let side = MuxConn::new(topo.addr, Duration::from_secs(10));
    let fillers = saturate(&side, &topo.server);
    let probe = second_capture(&subjects[5], 4_343);
    let result = topo
        .coordinator
        .search(&probe)
        .expect("the retry is served");
    assert_same_result(&result, &local.search(&probe), 0);
    // One backoff is enough for the queue to drain, so exactly one resend.
    assert_eq!(counter(&topo.client, "serve.retries"), 1);
    assert_eq!(counter(&topo.client, "serve.shed"), 1);

    let entries = slowlog.entries();
    assert_eq!(entries.len(), 1, "threshold 0 keeps every search");
    let shard = &entries[0].shards[0];
    assert!(shard.retried && shard.shed, "exemplar: {shard:?}");
    // A retried round trip runs from the shed to the success, backoff
    // included.
    assert!(
        shard.stage1_ns >= retry.base.as_nanos() as u64,
        "exemplar: {shard:?}"
    );
    topo.finish(side, fillers);
}

/// A second request under an id still in flight on the same connection is
/// answered with a typed `BAD_REQUEST` — not executed twice, not
/// mis-delivered — and the connection keeps working.
#[test]
fn duplicate_in_flight_request_id_is_rejected_typed() {
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let delay = server.delay_stage();
    let handle = server.spawn();
    // Pin the original request in a worker long enough for the duplicate
    // to provably arrive while it is still in flight.
    delay.store(100, Ordering::Relaxed);

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let probe = synthetic_template(78, 10);
    let request = Frame::StageOne { probe, trace: None };
    write_frame_with(&mut stream, 5, &request).unwrap();
    write_frame_with(&mut stream, 5, &request).unwrap();
    stream.flush().unwrap();

    let (id_a, first, _) = read_frame_with(&mut stream).unwrap();
    let (id_b, second, _) = read_frame_with(&mut stream).unwrap();
    assert_eq!((id_a, id_b), (5, 5));
    let (error, ok) = match (&first, &second) {
        (Frame::Error { .. }, _) => (&first, &second),
        _ => (&second, &first),
    };
    match error {
        Frame::Error { code: c, detail } => {
            assert_eq!(*c, code::BAD_REQUEST);
            assert!(detail.contains("in flight"), "detail: {detail}");
        }
        other => panic!("expected a typed error, got '{}'", other.kind()),
    }
    assert!(
        matches!(ok, Frame::StageOneOk { .. }),
        "original request must still be served, got '{}'",
        ok.kind()
    );

    // The connection survived: a fresh id round-trips.
    delay.store(0, Ordering::Relaxed);
    write_frame_with(&mut stream, 6, &Frame::Health).unwrap();
    let (id, response, _) = read_frame_with(&mut stream).unwrap();
    assert_eq!(id, 6);
    assert!(matches!(response, Frame::HealthOk { .. }));

    drop(stream);
    handle.stop();
    handle.join();
}

/// A churn of short-lived connections must not leave dead reader threads
/// behind: the accept loop reaps finished handles, so the tracked count
/// returns to zero once the clients are gone.
#[test]
fn connection_churn_does_not_accumulate_reader_threads() {
    let server = ShardServer::bind(PairTableMatcher::default(), "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let tracked = server.tracked_connections();
    let handle = server.spawn();

    for i in 0..30u32 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write_frame_with(&mut stream, i + 1, &Frame::Health).unwrap();
        let (id, response, _) = read_frame_with(&mut stream).unwrap();
        assert_eq!(id, i + 1);
        assert!(matches!(response, Frame::HealthOk { .. }));
        // Dropping the stream ends the connection's reader thread.
    }

    // The accept loop reaps on every poll tick; give it a few.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let live = tracked.load(Ordering::Relaxed);
        if live == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "{live} connection threads still tracked after churn"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    handle.stop();
    handle.join();
}
