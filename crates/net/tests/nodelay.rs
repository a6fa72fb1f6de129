//! Nagle stays off on both ends of a pipelined connection. A pipelined
//! peer waits on the other side's frames, so with Nagle on, a small
//! frame written while an earlier one is still unacknowledged sits in
//! the kernel until the receiver's delayed ACK fires (40 ms on Linux).
//! The tail of every stream hits it: the client has sent everything and
//! has no data to carry an early ACK, while the server still owes the
//! window's last responses.

use std::net::TcpListener;

use stmbench7_backend::{AnyBackend, BackendChoice};
use stmbench7_core::WorkloadType;
use stmbench7_data::{StructureParams, Workspace};
use stmbench7_net::{drive, serve_net, shutdown, DriveConfig};
use stmbench7_service::{Schedule, ServeConfig};

/// The stall a Nagle regression adds to a round trip, in microseconds.
const DELAYED_ACK_US: u64 = 40_000;

/// The slowest network-lane time (round trip minus the server-reported
/// queue and service time; µs, log2 bucket upper bound) of one closed
/// drive: a few hundred tiny-preset requests over four loopback
/// connections, eight in flight on each.
fn slowest_network_us() -> u64 {
    let params = StructureParams::tiny();
    let backend = AnyBackend::build(BackendChoice::Coarse, Workspace::build(params.clone(), 7));
    let schedule = Schedule::Closed { clients: 1 };
    let mut drive_cfg = DriveConfig::new(schedule, WorkloadType::ReadDominated, 9);
    drive_cfg.long_traversals = false;
    drive_cfg.inflight = 8;
    drive_cfg.connections = 4;
    let requests = drive_cfg.generate(400);
    let mut server_cfg = ServeConfig::new(schedule, WorkloadType::ReadDominated, 9);
    server_cfg.workers = 1;

    let listener = TcpListener::bind("127.0.0.1:0").expect("ephemeral loopback port");
    let addr = listener.local_addr().unwrap();
    let client = std::thread::scope(|scope| {
        let backend = &backend;
        let params = &params;
        let server_cfg = &server_cfg;
        let server = scope.spawn(move || serve_net(backend, params, server_cfg, listener, None));
        // Shut down before unwrapping: a failed drive must not leave the
        // scope joining a server blocked in accept().
        let client = drive(addr, &drive_cfg, &requests);
        let shutdown = shutdown(addr);
        server
            .join()
            .expect("server thread panicked")
            .expect("server exits cleanly");
        shutdown.expect("shutdown acknowledged");
        client.expect("drive succeeds")
    });
    let svc = client
        .report
        .service
        .as_ref()
        .expect("client service stats");
    let network = svc
        .network
        .as_ref()
        .expect("net drives keep a network lane");
    assert_eq!(network.samples(), 400, "every request answered");
    network.percentile_us(100.0).expect("network samples")
}

#[test]
fn pipelined_round_trips_never_wait_out_a_delayed_ack() {
    // A Nagle stall shows in nearly every drive (whether the last
    // responses leave in one write or several is up to the scheduler); a
    // scheduling hiccup on a busy machine shows in one. So one slow drive
    // in five is noise, and two are a regression.
    let slow: Vec<u64> = (0..5)
        .map(|_| slowest_network_us())
        .filter(|&us| us >= DELAYED_ACK_US / 2)
        .collect();
    assert!(
        slow.len() <= 1,
        "{} of five drives had a network round trip of {slow:?} us: \
         is TCP_NODELAY still set on both ends?",
        slow.len()
    );
}
