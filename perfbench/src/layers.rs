//! The traced run: the per-layer ledger.
//!
//! The benchmark times its own calls into each layer's public functions;
//! nothing inside the program is instrumented. The layer calls that
//! `serve-*` makes happen inside the server threads, so the traced run
//! replays the workload's own seeded inputs in-process through the same
//! functions (`Message::from_bytes`, `Resolver::begin`,
//! `Message::to_bytes`, `EcsCache::lookup`/`insert`, `Resolver::
//! resolve_msg` against `AuthServer`, `AuthServer::handle`). Layers the
//! workload does not reach are measured on reference inputs drawn from the
//! same seed, so every traced run reports every per-layer metric; the
//! reconciliation row sums only the layers the workload reaches.
//!
//! The run also repeats one round of the workload, alternately untraced
//! and with its client-side spans on; the difference between the medians
//! of their CPU per operation is the tracing overhead.

use std::collections::BTreeMap;
use std::net::{IpAddr, Ipv4Addr, UdpSocket};
use std::time::Duration;

use analysis::{CacheSimConfig, CacheSimulator};
use authoritative::AuthServer;
use dns_wire::{EcsOption, Message, Name, Question, Rdata, Record, RecordType};
use dnsd::{RecvBatch, SendBatch};
use netsim::SimTime;
use resolver::{CacheCompliance, EcsCache, Resolver, Step};

use crate::serve::{self, Mix};
use crate::stats::median;
use crate::trace::{count_allocs, Agg, Tracer, ROOT};
use crate::{fig1w, one_round, scan, sys, Metric, Outcome, Round};

/// Hot queries replayed through decode → hit → encode.
const HOT_OPS: usize = 20_000;
/// Fresh-name misses replayed through `resolve_msg`.
const MISS_OPS: usize = 1_000;
/// Fresh ECS queries handed to `AuthServer::handle`.
const AUTH_OPS: usize = 5_000;
/// Datagrams through the client's `SendBatch`/`RecvBatch` on loopback.
const DGRAMS: usize = 20_000;
/// Timed inserts per cache population.
const INSERTS: usize = 200;
/// The small population, and the large one: half a scan-fresh round,
/// the egress cache's mean occupancy during that round.
const SMALL_POPULATION: usize = 200;
const LARGE_POPULATION: usize = scan::PROBES as usize / 2;
/// Probes of the reference scan for workloads that do not scan.
const REFERENCE_PROBES: u64 = 2_000;
/// Records of the reference stream for workloads that do not replay §7.
const REFERENCE_RECORDS: u64 = 200_000;
/// Untraced/traced round pairs behind `trace.overhead_pct`.
const OVERHEAD_PAIRS: usize = 3;

const NOW: SimTime = SimTime::ZERO;

fn client_of(q: &serve::Query) -> IpAddr {
    IpAddr::V4(q.ecs.unwrap_or(Ipv4Addr::LOCALHOST))
}

/// Mean cost of an empty span: the clock reads every span adds. Layer
/// figures are reported with it subtracted.
fn span_floor_ns() -> f64 {
    let mut t = Tracer::new();
    for i in 0..10_000 {
        t.span(i, "floor", ROOT, || ());
    }
    let a = t.summary()["floor"];
    a.total_ns as f64 / a.calls as f64
}

struct Ledger {
    summary: BTreeMap<&'static str, Agg>,
    floor_ns: f64,
}

impl Ledger {
    /// Self time per item of the spans named `name`, less the span floor.
    fn ns_per_item(&self, name: &str) -> f64 {
        let a = self.summary.get(name).copied().unwrap_or_default();
        assert!(a.items > 0, "no spans named {name}");
        ((a.self_ns as f64 - self.floor_ns * a.calls as f64) / a.items as f64).max(0.0)
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.summary
            .get(name)
            .map(|a| a.total_ns as f64)
            .unwrap_or(0.0)
    }
}

/// Decode → engine hit → encode for the workload's hot queries, cache
/// lookups, fresh-name misses against an in-process authoritative, and
/// authoritative handling of fresh ECS queries. Returns the exact heap
/// allocations per response encode.
fn engine_layers(t: &mut Tracer, hot: &Mix, cold: &Mix) -> Result<f64, String> {
    let mut auth = serve::auth_server();
    let mut res = Resolver::new(serve::resolver_config());
    for q in &hot.queries[..hot.hot_len] {
        let m = Message::from_bytes(&q.bytes).map_err(|e| e.to_string())?;
        serve::check_answer(q, 0, &res.resolve_msg(&m, client_of(q), NOW, &mut auth))?;
    }
    let hot_order: Vec<u32> = hot
        .order
        .iter()
        .copied()
        .filter(|&i| !hot.queries[i as usize].cold)
        .take(HOT_OPS)
        .collect();
    let mut responses = Vec::with_capacity(hot_order.len());
    for (seq, &i) in hot_order.iter().enumerate() {
        let q = &hot.queries[i as usize];
        let op = seq as u64;
        let root = t.open(op, "replay.query", ROOT);
        let m = t
            .span(op, "wire.decode_query", root, || {
                Message::from_bytes(&q.bytes)
            })
            .map_err(|e| e.to_string())?;
        let step = t.span(op, "resolver.begin_hit", root, || {
            res.begin(&m, client_of(q), NOW)
        });
        let Step::Answer(resp) = step else {
            return Err(format!("warm query for {} missed the cache", q.name));
        };
        let bytes = t
            .span(op, "wire.encode_response", root, || resp.to_bytes())
            .map_err(|e| e.to_string())?;
        t.close(root, 1);
        serve::check_answer(
            q,
            0,
            &Message::from_bytes(&bytes).map_err(|e| e.to_string())?,
        )?;
        responses.push(resp);
    }
    let (_, allocs) = count_allocs(|| {
        for r in &responses {
            std::hint::black_box(r.to_bytes().expect("encodes"));
        }
    });
    for (seq, &i) in hot_order.iter().enumerate() {
        let q = &hot.queries[i as usize];
        let found = t.span(seq as u64, "resolver.cache_lookup", ROOT, || {
            res.cache_mut()
                .lookup(&q.name, RecordType::A, client_of(q), NOW)
        });
        if found.is_none() {
            return Err(format!("cache lookup for {} missed", q.name));
        }
    }
    for (k, q) in cold.queries[cold.hot_len..]
        .iter()
        .take(MISS_OPS)
        .enumerate()
    {
        let m = Message::from_bytes(&q.bytes).map_err(|e| e.to_string())?;
        let resp = t.span(k as u64, "resolver.miss", ROOT, || {
            res.resolve_msg(&m, client_of(q), NOW, &mut auth)
        });
        serve::check_answer(q, 0, &resp)?;
    }
    auth_layer(t, &mut auth)?;
    Ok(allocs as f64 / responses.len() as f64)
}

fn auth_layer(t: &mut Tracer, auth: &mut AuthServer) -> Result<(), String> {
    let from = IpAddr::V4(Ipv4Addr::LOCALHOST);
    for k in 0..AUTH_OPS {
        let name = Name::from_ascii(&format!("a{k}.{}", serve::ZONE)).expect("valid name");
        let mut q = Message::query(k as u16, Question::a(name));
        q.set_ecs(EcsOption::from_v4(
            Ipv4Addr::from(0x2D00_0000 | ((k as u32) << 8)),
            24,
        ));
        let resp = t.span(k as u64, "auth.handle", ROOT, || auth.handle(&q, from, NOW));
        if resp.answer_addrs() != vec![IpAddr::V4(serve::SYNTH_ADDR)] {
            return Err(format!("authoritative answered {:?}", resp.answer_addrs()));
        }
    }
    Ok(())
}

/// `EcsCache::insert` of fresh (name, /24) pairs into caches already
/// holding `SMALL_POPULATION` and `LARGE_POPULATION` live entries.
fn insert_layer(t: &mut Tracer) {
    let entry = |i: usize| {
        let name = Name::from_ascii(&format!("f{i}.{}", serve::ZONE)).expect("valid name");
        let record = Record::new(name.clone(), 3600, Rdata::A(serve::SYNTH_ADDR));
        let subnet = Ipv4Addr::from(0x2E00_0000 | ((i as u32) << 8));
        let ecs = EcsOption::from_v4(subnet, 24).with_scope(24);
        (name, record, ecs)
    };
    for (population, span) in [
        (SMALL_POPULATION, "resolver.cache_insert.small"),
        (LARGE_POPULATION, "resolver.cache_insert.large"),
    ] {
        let mut cache = EcsCache::new(CacheCompliance::Honor);
        for i in 0..population {
            let (name, record, ecs) = entry(i);
            cache.insert(name, RecordType::A, vec![record], Some(ecs), 3600, NOW);
        }
        for i in population..population + INSERTS {
            let (name, record, ecs) = entry(i);
            let cached = t.span(i as u64, span, ROOT, || {
                cache.insert(name, RecordType::A, vec![record], Some(ecs), 3600, NOW)
            });
            assert!(cached, "a fresh /24 answer with scope 24 is cacheable");
        }
    }
}

/// The client's own `SendBatch::flush` and `RecvBatch::recv` on loopback,
/// with every datagram already queued when `recv` runs (so the span holds
/// the call, not the wait for a reply).
fn socket_layer(t: &mut Tracer, mix: &Mix) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let a = UdpSocket::bind("127.0.0.1:0").map_err(io)?;
    let b = UdpSocket::bind("127.0.0.1:0").map_err(io)?;
    b.set_read_timeout(Some(Duration::from_secs(1)))
        .map_err(io)?;
    let to = b.local_addr().map_err(io)?;
    let mut tx = SendBatch::new();
    let mut rx = RecvBatch::new(serve::WINDOW);
    let mut sent = 0;
    while sent < DGRAMS {
        let burst = serve::WINDOW.min(DGRAMS - sent);
        for k in 0..burst {
            let i = mix.order[(sent + k) % mix.order.len()] as usize;
            tx.push(mix.queries[i].bytes.clone(), to);
        }
        let s = t.open(sent as u64, "dnsd.send", ROOT);
        let n = tx.flush(&a).map_err(io)?;
        t.close(s, n as u64);
        let mut got = 0;
        while got < n {
            let s = t.open(sent as u64, "dnsd.recv", ROOT);
            let m = rx.recv(&b).map_err(io)?;
            t.close(s, m as u64);
            if m == 0 {
                return Err("loopback datagrams lost".into());
            }
            got += m;
        }
        sent += burst;
    }
    Ok(())
}

/// Chunk-by-chunk drains of the §7 stream (whole, then every shard at
/// the workload's parallelism) and one `run_streaming` replay at
/// parallelism 1.
fn stream_layers(t: &mut Tracer, seed: u64, records: u64) -> Result<(), String> {
    let source = fig1w::config(seed, records).stream.source();
    let mut buf = Vec::with_capacity(source.chunk_size());
    let mut stream = source.open();
    let mut chunk = 0u64;
    loop {
        let s = t.open(chunk, "workload.generate", ROOT);
        let more = stream.next_chunk_into(&mut buf);
        t.close(s, buf.len() as u64);
        chunk += 1;
        if !more {
            break;
        }
    }
    let mut yielded = 0;
    for w in 0..fig1w::PARALLELISM {
        let mut stream = source.open_shard(w, fig1w::PARALLELISM);
        loop {
            let s = t.open(chunk, "workload.shard_generate", ROOT);
            let more = stream.next_chunk_into(&mut buf);
            t.close(s, buf.len() as u64);
            yielded += buf.len() as u64;
            chunk += 1;
            if !more {
                break;
            }
        }
    }
    if yielded != records {
        return Err(format!("shards yielded {yielded} of {records} records"));
    }
    let sim = CacheSimulator::new(CacheSimConfig {
        ttl_override: Some(20),
        parallelism: 1,
        ..CacheSimConfig::default()
    });
    let result = t.span(0, "analysis.run_streaming", ROOT, || {
        sim.run_streaming(&source)
    });
    let lookups: u64 = result.per_resolver.iter().map(|r| r.lookups).sum();
    if lookups != records {
        return Err(format!("replay looked up {lookups} of {records} records"));
    }
    Ok(())
}

pub fn traced(workload: &str, seed: u64) -> Result<Outcome, String> {
    let floor_ns = span_floor_ns();
    let mut t = Tracer::new();
    let cold = workload == "serve-cold";

    // The workload itself: a warm-up round (first-touch page faults land
    // there), then the same round alternately untraced and traced.
    one_round(workload, seed, 0)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut serve_counters, mut scan_counters, mut scan_wall_s) = (None, None, 0.0);
    for _ in 0..OVERHEAD_PAIRS {
        untraced.push(one_round(workload, seed, 0)?);
        traced.push(match workload {
            "fig1-paper" => t.span(0, "fig1.round", ROOT, || fig1w::round(seed))?,
            "scan-fresh" => {
                let (r, c) = sys::on_one_cpu(|| {
                    t.span(0, "scan.round", ROOT, || scan::round(seed, 0, scan::PROBES))
                })??;
                (scan_counters, scan_wall_s) = (Some(c), r.wall_s);
                r
            }
            _ => {
                let (r, c) = sys::on_one_cpu(|| serve::round(seed, 0, cold, Some(&mut t)))??;
                serve_counters = Some(c);
                r
            }
        });
    }
    let cpu_per_op =
        |rounds: &[Round]| median(&rounds.iter().map(Round::cpu_us_per_op).collect::<Vec<_>>());
    let (untraced_cpu, traced_cpu) = (cpu_per_op(&untraced), cpu_per_op(&traced));
    let overhead_pct = (traced_cpu / untraced_cpu - 1.0) * 100.0;

    // Reference rounds for the socket path and the scan, where the
    // workload does not reach them.
    let serve_counters = match serve_counters {
        Some(c) => c,
        None => sys::on_one_cpu(|| serve::round(seed, 0, false, Some(&mut t)))??.1,
    };
    let (scan_counters, scan_wall_s) = match scan_counters {
        Some(c) => (c, scan_wall_s),
        None => {
            let (r, c) = sys::on_one_cpu(|| scan::round(seed, 0, REFERENCE_PROBES))??;
            (c, r.wall_s)
        }
    };

    let hot = Mix::new(seed, 0, cold);
    let cold_mix = if cold {
        None
    } else {
        Some(Mix::new(seed, 0, true))
    };
    let allocs_per_encode = engine_layers(&mut t, &hot, cold_mix.as_ref().unwrap_or(&hot))?;
    insert_layer(&mut t);
    socket_layer(&mut t, &hot)?;
    let records = if workload == "fig1-paper" {
        fig1w::RECORDS
    } else {
        REFERENCE_RECORDS
    };
    stream_layers(&mut t, seed, records)?;

    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{workload}-seed{seed}.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: wrote {} spans to {}", t.len(), path.display());

    let l = Ledger {
        summary: t.summary(),
        floor_ns,
    };
    let generate = l.ns_per_item("workload.generate");
    let shard_generate = l.ns_per_item("workload.shard_generate");
    let replay = l.total_ns("analysis.run_streaming") / records as f64 - generate;
    let mut m: Vec<Metric> = vec![
        (
            "wire.decode_query_ns".into(),
            l.ns_per_item("wire.decode_query"),
            "ns",
        ),
        (
            "wire.encode_response_ns".into(),
            l.ns_per_item("wire.encode_response"),
            "ns",
        ),
        (
            "wire.encode_response_allocs".into(),
            allocs_per_encode,
            "count",
        ),
        (
            "resolver.hit_ns".into(),
            l.ns_per_item("resolver.begin_hit"),
            "ns",
        ),
        (
            "resolver.cache_lookup_ns".into(),
            l.ns_per_item("resolver.cache_lookup"),
            "ns",
        ),
        (
            "resolver.cache_insert_ns.small".into(),
            l.ns_per_item("resolver.cache_insert.small"),
            "ns",
        ),
        (
            "resolver.cache_insert_ns.large".into(),
            l.ns_per_item("resolver.cache_insert.large"),
            "ns",
        ),
        (
            "resolver.miss_ns".into(),
            l.ns_per_item("resolver.miss"),
            "ns",
        ),
        ("auth.handle_ns".into(), l.ns_per_item("auth.handle"), "ns"),
        (
            "dnsd.send_ns_per_dgram".into(),
            l.ns_per_item("dnsd.send"),
            "ns",
        ),
        (
            "dnsd.recv_ns_per_dgram".into(),
            l.ns_per_item("dnsd.recv"),
            "ns",
        ),
        (
            "dnsd.server_recv_batch_avg".into(),
            serve_counters.server_recv_batch_avg,
            "dgrams",
        ),
        (
            "dnsd.cache_hits".into(),
            serve_counters.cache_hits as f64,
            "count",
        ),
        (
            "dnsd.upstream_queries".into(),
            serve_counters.upstream_queries as f64,
            "count",
        ),
        (
            "netsim.delivered".into(),
            scan_counters.delivered as f64,
            "count",
        ),
        (
            "netsim.ns_per_delivery".into(),
            scan_wall_s * 1e9 / scan_counters.delivered as f64,
            "ns",
        ),
        (
            "scanner.attempts".into(),
            scan_counters.attempts as f64,
            "count",
        ),
        ("workload.generate_ns_per_record".into(), generate, "ns"),
        (
            "workload.shard_generate_ns_per_record".into(),
            shard_generate,
            "ns",
        ),
        ("analysis.replay_ns_per_record".into(), replay, "ns"),
    ];
    let v = |m: &[Metric], name: &str| {
        m.iter()
            .find(|(n, _, _)| n == name)
            .map(|x| x.1)
            .expect("metric computed above")
    };
    let socket = v(&m, "dnsd.send_ns_per_dgram") + v(&m, "dnsd.recv_ns_per_dgram");
    let (dec, enc) = (
        v(&m, "wire.decode_query_ns"),
        v(&m, "wire.encode_response_ns"),
    );
    // Client and worker each send and receive once per hit.
    let hit_path = dec + v(&m, "resolver.hit_ns") + enc + 2.0 * socket;
    // A miss adds the upstream leg: the resolver encodes and the
    // authoritative decodes a query, the authoritative encodes and the
    // resolver decodes a response, and four more datagram crossings.
    let miss_path = 3.0 * dec + 3.0 * enc + v(&m, "resolver.miss_ns") + 4.0 * socket;
    let cold_share = 1.0 / serve::COLD_EVERY as f64;
    let (layer_ns, remainder_is) = match workload {
        "serve-hot" => (
            hit_path,
            "scheduler wake-ups and loop bookkeeping of the client and worker threads",
        ),
        "serve-cold" => (
            (1.0 - cold_share) * hit_path + cold_share * miss_path,
            "scheduler wake-ups, the authoritative thread and flight-table admission",
        ),
        // Three TTL cells and the streamed cross-check (a prefix of the
        // stream) each generate their shard streams and replay them.
        "fig1-paper" => (
            (3.0 + fig1w::crosscheck_share()) * (shard_generate + replay),
            "the materialized cross-check (materialize + replay), thread start-up and CDF builds",
        ),
        // The egress resolver's miss path, with the insert priced at the
        // round's mean cache occupancy, plus the wire work of the six
        // simulated hops (scanner, relay and egress each way, the
        // authoritative in the middle): six encodes and six decodes.
        _ => (
            v(&m, "resolver.miss_ns") - v(&m, "resolver.cache_insert_ns.small")
                + v(&m, "resolver.cache_insert_ns.large")
                + 6.0 * (dec + enc),
            "the netsim event loop, the scanner's slot/budget/breaker bookkeeping and the capture",
        ),
    };
    let layer_us = layer_ns / 1e3;
    let remainder_us = untraced_cpu - layer_us;
    eprintln!(
        "reconcile {workload}: layers {layer_us:.3} us/op beside cpu_us_per_op {:.3} us/op; \
         remainder {remainder_us:.3} us/op ({:.0}%) is {remainder_is}",
        untraced_cpu,
        100.0 * remainder_us / untraced_cpu
    );
    eprintln!(
        "tracing overhead {workload}: {:.3} us/op traced vs {:.3} untraced ({overhead_pct:+.1}%), span floor {floor_ns:.1} ns",
        traced_cpu,
        untraced_cpu
    );
    m.push(("reconcile.layer_sum_us_per_op".into(), layer_us, "us"));
    m.push(("reconcile.remainder_us_per_op".into(), remainder_us, "us"));
    m.push(("trace.overhead_pct".into(), overhead_pct, "%"));
    Ok(Outcome {
        correct: true,
        attempted: untraced.iter().chain(&traced).map(|r| r.attempted).sum(),
        failed: untraced.iter().chain(&traced).map(|r| r.failed).sum(),
        metrics: m,
    })
}
