//! `serve-hot` and `serve-cold`: a one-worker `dnsd::UdpResolverServer`
//! in front of a `dnsd::UdpAuthServer` on loopback, driven by a closed
//! loop of [`WINDOW`] stub clients from one thread. Each client sends its
//! next query only once its previous reply has arrived.
//!
//! A round sets up a fresh server pair, warms the cache with every hot
//! query once, then measures [`QUERIES`] queries. Every round starts from
//! the same cache occupancy, so a round's per-query cost does not depend
//! on how many rounds came before it (see the README on the per-insert
//! purge of `EcsCache`).

use std::net::{IpAddr, Ipv4Addr, SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use authoritative::{AuthServer, EcsHandling, ScopePolicy, Zone};
use dns_wire::{EcsOption, IpPrefix, Message, Name, Question, Rcode};
use dnsd::{RecvBatch, SendBatch, UdpAuthServer, UdpResolverServer};
use resolver::ResolverConfig;

use crate::stats::{percentile, Rng};
use crate::trace::{Tracer, ROOT};
use crate::{sys, Latency, Round};

pub const ZONE: &str = "bench.example";
/// Distinct zone names in the hot set.
pub const HOT_NAMES: usize = 256;
/// Client /24s (seeded per run) that hot queries attach as ECS; each name
/// is also asked once without ECS.
pub const HOT_SUBNETS: usize = 4;
/// Outstanding queries of the closed loop.
pub const WINDOW: usize = 4;
/// Measured queries per round.
pub const QUERIES: usize = 20_000;
/// serve-cold: every `COLD_EVERY`-th query asks for a never-seen name
/// with a never-seen /24.
pub const COLD_EVERY: usize = 10;
/// The authoritative's scope rule is `ScopePolicy::SourceMinusK(SCOPE_K)`
/// (the paper's experimental nameserver), so an ECS /24 comes back with
/// scope 24 − 4 = 20.
pub const SCOPE_K: u8 = 4;
const TTL: u32 = 3600;

/// The zone's rule: hot name `www{i}` resolves to 198.18.0.0 + i + 1.
pub fn hot_addr(i: usize) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(Ipv4Addr::new(198, 18, 0, 0)) + 1 + i as u32)
}

/// The address the zone synthesizes for every name it does not hold.
pub const SYNTH_ADDR: Ipv4Addr = Ipv4Addr::new(198, 18, 255, 254);

/// One pre-encoded query and what its answer must be.
pub struct Query {
    pub bytes: Vec<u8>,
    pub name: Name,
    pub expect: Ipv4Addr,
    pub ecs: Option<Ipv4Addr>,
    pub cold: bool,
}

impl Query {
    fn new(name: Name, expect: Ipv4Addr, ecs: Option<Ipv4Addr>, cold: bool) -> Self {
        let mut m = Message::query(0, Question::a(name.clone()));
        if let Some(subnet) = ecs {
            m.set_ecs(EcsOption::from_v4(subnet, 24));
        }
        Query {
            bytes: m.to_bytes().expect("query encodes"),
            name,
            expect,
            ecs,
            cold,
        }
    }
}

/// A round's inputs: the hot set, the cold queries, and the order in
/// which the loop sends them (an index into `hot ++ cold`).
pub struct Mix {
    pub queries: Vec<Query>,
    pub hot_len: usize,
    pub order: Vec<u32>,
}

impl Mix {
    /// Inputs of round `round` of a run seeded with `seed`. The hot set
    /// depends on the seed only; the send order and the cold names on the
    /// round too.
    pub fn new(seed: u64, round: u64, cold: bool) -> Self {
        let mut rng = Rng::new(seed, 1);
        // Hot /24s inside 11.0.0.0/8, cold ones inside 45.0.0.0/8: no
        // cold source ever matches a hot one.
        let base = rng.below(1 << 16) as u32;
        let subnets: Vec<Ipv4Addr> = (0..HOT_SUBNETS as u32)
            .map(|k| Ipv4Addr::from((11 << 24) | (((base + k * 257) & 0xffff) << 8)))
            .collect();
        let mut queries = Vec::with_capacity(HOT_NAMES * (1 + HOT_SUBNETS) + QUERIES / COLD_EVERY);
        for i in 0..HOT_NAMES {
            let name = Name::from_ascii(&format!("www{i}.{ZONE}")).expect("valid name");
            queries.push(Query::new(name.clone(), hot_addr(i), None, false));
            for &s in &subnets {
                queries.push(Query::new(name.clone(), hot_addr(i), Some(s), false));
            }
        }
        let hot_len = queries.len();
        let mut rng = Rng::new(seed, 2 + round);
        let cold_base = rng.below(1 << 16) as u32;
        let mut order = Vec::with_capacity(QUERIES);
        for q in 0..QUERIES {
            if cold && q % COLD_EVERY == COLD_EVERY - 1 {
                let k = (queries.len() - hot_len) as u32;
                let name =
                    Name::from_ascii(&format!("c{k}-r{round}-s{seed}.{ZONE}")).expect("valid name");
                let subnet = Ipv4Addr::from((45 << 24) | (((cold_base + k) & 0xffff) << 8));
                order.push(queries.len() as u32);
                queries.push(Query::new(name, SYNTH_ADDR, Some(subnet), true));
            } else {
                order.push(rng.below(hot_len as u64) as u32);
            }
        }
        Mix {
            queries,
            hot_len,
            order,
        }
    }
}

pub fn auth_server() -> AuthServer {
    let mut zone = Zone::new(Name::from_ascii(ZONE).expect("valid apex"));
    for i in 0..HOT_NAMES {
        zone.add_a(
            Name::from_ascii(&format!("www{i}.{ZONE}")).expect("valid name"),
            TTL,
            hot_addr(i),
        )
        .expect("unique names");
    }
    zone.set_synth_a(TTL, SYNTH_ADDR);
    let mut auth = AuthServer::new(zone, EcsHandling::open(ScopePolicy::SourceMinusK(SCOPE_K)));
    auth.set_logging(false);
    auth
}

/// The resolver's configuration: RFC-compliant, trusting the client's ECS
/// (so the query's /24, not the loopback address, keys the cache).
pub fn resolver_config() -> ResolverConfig {
    let mut config = ResolverConfig::rfc_compliant(IpAddr::V4(Ipv4Addr::LOCALHOST));
    config.accept_client_ecs = true;
    config
}

/// Checks one answer against the zone's rule and the scope rule.
pub fn check_answer(q: &Query, id: u16, resp: &Message) -> Result<(), String> {
    let who = || format!("{} (ecs {:?})", q.name, q.ecs);
    if resp.id != id || !resp.is_response() {
        return Err(format!("{}: id {} / response flag wrong", who(), resp.id));
    }
    if resp.rcode != Rcode::NoError {
        return Err(format!("{}: rcode {:?}", who(), resp.rcode));
    }
    if resp.answer_addrs() != vec![IpAddr::V4(q.expect)] {
        return Err(format!(
            "{}: answer {:?}, want {}",
            who(),
            resp.answer_addrs(),
            q.expect
        ));
    }
    match (q.ecs, resp.ecs()) {
        (None, None) => Ok(()),
        (Some(subnet), Some(opt)) => {
            let want = IpPrefix::v4(subnet, 24).expect("/24");
            if opt.source_prefix() != want || opt.scope_prefix_len() != 24 - SCOPE_K {
                return Err(format!(
                    "{}: ECS echo {}/scope {}, want {want}/scope {}",
                    who(),
                    opt.source_prefix(),
                    opt.scope_prefix_len(),
                    24 - SCOPE_K
                ));
            }
            Ok(())
        }
        (sent, got) => Err(format!("{}: ECS sent {sent:?}, echoed {got:?}", who())),
    }
}

/// Registry deltas over the measured part of a round.
#[derive(Default, Clone, Copy)]
pub struct Counters {
    pub cache_hits: u64,
    pub upstream_queries: u64,
    /// Mean datagrams per server recvmmsg (profiled rounds only).
    pub server_recv_batch_avg: f64,
}

/// Sends every query once, sequentially, so the measured part finds a
/// warm cache.
fn warm(client: &UdpSocket, server: SocketAddr, queries: &[Query]) -> Result<(), String> {
    let mut buf = [0u8; 4096];
    for (i, q) in queries.iter().enumerate() {
        let mut bytes = q.bytes.clone();
        bytes[0..2].copy_from_slice(&(i as u16).to_be_bytes());
        client.send_to(&bytes, server).map_err(|e| e.to_string())?;
        let n = client
            .recv(&mut buf)
            .map_err(|e| format!("warm-up query {i} unanswered: {e}"))?;
        let resp = Message::from_bytes(&buf[..n]).map_err(|e| e.to_string())?;
        check_answer(q, i as u16, &resp).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// One round. With `tracer`, the client's batch calls are recorded as
/// spans and the server runs with its profiling layer on (for the recv
/// batch histogram).
pub fn round(
    seed: u64,
    round: u64,
    cold: bool,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Round, Counters), String> {
    let io = |e: std::io::Error| e.to_string();
    let setup_start = Instant::now();
    let mix = Mix::new(seed, round, cold);
    let auth = UdpAuthServer::bind("127.0.0.1:0", auth_server()).map_err(io)?;
    let auth_addr = auth.local_addr().map_err(io)?;
    let auth = auth.spawn();
    let mut server = UdpResolverServer::bind("127.0.0.1:0", auth_addr, resolver_config())
        .map_err(io)?
        .with_workers(1);
    if tracer.is_some() {
        server = server.with_profiling();
    }
    let server = server.spawn().map_err(io)?;
    let addr = server.local_addr();
    let client = UdpSocket::bind("127.0.0.1:0").map_err(io)?;
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .map_err(io)?;
    warm(&client, addr, &mix.queries[..mix.hot_len])?;
    let hits0 = server
        .cache()
        .snapshot()
        .counter("cache_hits_total")
        .unwrap_or(0);
    let auth0 = auth
        .registry()
        .snapshot()
        .counter("dnsd_queries_total")
        .unwrap_or(0);
    let setup_s = setup_start.elapsed().as_secs_f64();

    // The measured closed loop. A reply's ID names its send sequence
    // number (mod 2^16; at most WINDOW are outstanding).
    let n = mix.order.len();
    let mut seq_of_id = vec![u32::MAX; 1 << 16];
    let mut sent_at = vec![Instant::now(); n];
    let mut lat_ns = vec![0u64; n];
    let mut replies: Vec<(u32, Vec<u8>)> = Vec::with_capacity(n);
    let mut rx = RecvBatch::new(WINDOW);
    let mut tx = SendBatch::new();
    let (mut sent, mut done, mut failed) = (0usize, 0usize, 0u64);
    let cpu0 = sys::cpu_ns();
    let t0 = Instant::now();
    while done < n {
        if sent < n && sent - done < WINDOW {
            let burst = (WINDOW - (sent - done)).min(n - sent);
            for _ in 0..burst {
                let mut bytes = mix.queries[mix.order[sent] as usize].bytes.clone();
                let id = sent as u16;
                bytes[0..2].copy_from_slice(&id.to_be_bytes());
                seq_of_id[id as usize] = sent as u32;
                sent_at[sent] = Instant::now();
                tx.push(bytes, addr);
                sent += 1;
            }
            let span = tracer
                .as_mut()
                .map(|t| t.open(sent as u64, "dnsd.client_flush", ROOT));
            tx.flush(&client).map_err(io)?;
            if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
                t.close(s, burst as u64);
            }
        }
        let span = tracer
            .as_mut()
            .map(|t| t.open(done as u64, "dnsd.client_recv_wait", ROOT));
        let got = rx.recv(&client).map_err(io)?;
        let now = Instant::now();
        if let (Some(t), Some(s)) = (tracer.as_mut(), span) {
            t.close(s, got as u64);
        }
        if got == 0 {
            // Two seconds without a reply: the outstanding queries and
            // those not yet sent failed.
            failed += (n - done) as u64;
            break;
        }
        for i in 0..got {
            let (payload, _) = rx.datagram(i);
            if payload.len() < 2 {
                return Err("short reply".into());
            }
            let id = u16::from_be_bytes([payload[0], payload[1]]);
            let seq = seq_of_id[id as usize];
            if seq == u32::MAX {
                return Err(format!("reply with unknown id {id}"));
            }
            seq_of_id[id as usize] = u32::MAX;
            lat_ns[seq as usize] = (now - sent_at[seq as usize]).as_nanos() as u64;
            replies.push((seq, payload.to_vec()));
            done += 1;
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_ns() - cpu0) as f64 / 1e9;

    let auth1 = auth
        .registry()
        .snapshot()
        .counter("dnsd_queries_total")
        .unwrap_or(0);
    let snap = server.shutdown();
    auth.shutdown();

    // Correctness, after the clock stopped.
    for (seq, bytes) in &replies {
        let q = &mix.queries[mix.order[*seq as usize] as usize];
        let resp = Message::from_bytes(bytes).map_err(|e| format!("undecodable reply: {e}"))?;
        check_answer(q, *seq as u16, &resp)?;
    }
    let answered = replies.len() as u64;
    if answered == 0 {
        return Err("no query of the round was answered".into());
    }
    let cold_sent = mix.order[..sent]
        .iter()
        .filter(|&&i| mix.queries[i as usize].cold)
        .count() as u64;
    let upstream_total = snap.counter("resolver_upstream_queries_total").unwrap_or(0);
    let counters = Counters {
        cache_hits: snap.counter("cache_hits_total").unwrap_or(0) - hits0,
        upstream_queries: auth1 - auth0,
        server_recv_batch_avg: snap
            .histogram("dnsd_recv_batch_size")
            .filter(|h| h.count > 0)
            .map(|h| h.sum as f64 / h.count as f64)
            .unwrap_or(0.0),
    };
    if upstream_total != auth1 {
        return Err(format!(
            "resolver counted {upstream_total} upstream queries, authoritative saw {auth1}"
        ));
    }
    if failed == 0 {
        if counters.cache_hits + counters.upstream_queries != answered {
            return Err(format!(
                "cache_hits {} + upstream_queries {} != answered {answered}",
                counters.cache_hits, counters.upstream_queries
            ));
        }
        if counters.upstream_queries != cold_sent {
            return Err(format!(
                "upstream_queries {} != cold queries sent {cold_sent}",
                counters.upstream_queries
            ));
        }
    }

    let mut all: Vec<u64> = replies.iter().map(|(s, _)| lat_ns[*s as usize]).collect();
    let mut hot: Vec<u64> = replies
        .iter()
        .filter(|(s, _)| !mix.queries[mix.order[*s as usize] as usize].cold)
        .map(|(s, _)| lat_ns[*s as usize])
        .collect();
    all.sort_unstable();
    hot.sort_unstable();
    let us = |ns: u64| ns as f64 / 1e3;
    let lat = Latency {
        p50_us: us(percentile(&all, 0.50)),
        p99_us: us(percentile(&all, 0.99)),
        hit_p99_us: us(percentile(&hot, 0.99)),
    };
    Ok((
        Round {
            setup_s,
            wall_s,
            cpu_s,
            ops: answered,
            attempted: n as u64,
            failed,
            lat: Some(lat),
        },
        counters,
    ))
}
