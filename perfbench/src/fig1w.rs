//! `fig1-paper`: the §7 Figure 1 experiment (`ecs_study::experiments::
//! fig1::run`) at paper shape — 2370 resolvers, about 2.4 million client
//! /24s, TTL cells 20/40/60 s and the default streaming ≡ materialized
//! cross-check — replayed at parallelism 2.
//!
//! A round holds twice the default cross-check's records, so the
//! cross-check replays a bounded prefix (half the stream) as it does at
//! paper scale, not the whole trace. The trace is still sparse by fig1's
//! own measure (under one record per client /24; the experiment's report
//! marks its median row "sparse"); its simulated window is shortened to
//! three times the largest TTL so that each resolver sees a few queries a
//! second and keeps hundreds of entries live at TTL 60.
//!
//! An operation is one trace record, counted once however many TTL cells
//! replay it. Set-up is the model build (`CdnStreamGen::source`).

use std::collections::HashMap;
use std::net::IpAddr;
use std::time::Instant;

use analysis::{CacheSimConfig, CacheSimulator};
use dns_wire::IpPrefix;
use ecs_study::experiments::fig1;
use workload::stream::CdnStreamModel;
use workload::{CdnStreamGen, NameTable, StreamRecord, TraceStreamSource, WorkloadModel};

use crate::{sys, timed_setup, Round};

/// The paper's resolver count.
pub const RESOLVERS: usize = 2370;
/// Mean client /24 pool per resolver: ≈ 2.4 million subnets in all.
pub const SUBNETS_PER_RESOLVER: usize = 1000;
/// Trace records per round: twice fig1's default `crosscheck_records`.
pub const RECORDS: u64 = 2_000_000;
/// Simulated trace window, three times the largest TTL cell.
pub const WINDOW_S: u64 = 180;
pub const PARALLELISM: usize = 2;
/// Records of the stream's prefix replayed by the three-way check.
pub const CHECK_RECORDS: u64 = 100_000;

pub fn config(seed: u64, records: u64) -> fig1::Config {
    let d = fig1::Config::default();
    fig1::Config {
        stream: CdnStreamGen {
            resolvers: RESOLVERS,
            subnets_per_resolver: SUBNETS_PER_RESOLVER,
            queries: records,
            duration: netsim::SimDuration::from_secs(WINDOW_S),
            seed,
            ..d.stream
        },
        parallelism: PARALLELISM,
        ..d
    }
}

/// Share of a round's records that the cross-check replays again
/// (streamed, and once more materialized).
pub fn crosscheck_share() -> f64 {
    let cfg = config(0, RECORDS);
    cfg.stream.queries.min(cfg.crosscheck_records) as f64 / RECORDS as f64
}

/// One round: build the model (set-up), then run the experiment.
pub fn round(seed: u64) -> Result<Round, String> {
    let cfg = config(seed, RECORDS);
    let (setup_s, source) = timed_setup(|| cfg.stream.source());
    drop(source);

    let cpu0 = sys::cpu_ns();
    let t0 = Instant::now();
    let (outcome, _report) = fig1::run(&cfg);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_ns() - cpu0) as f64 / 1e9;

    if !outcome.crosscheck_ok {
        return Err("fig1: streaming and materialized replays disagree".into());
    }
    // Every resolver the stream names gets one blow-up per TTL cell.
    let model = cfg.stream.build();
    let mut seen = vec![false; RESOLVERS];
    for i in 0..model.total() {
        seen[model.resolver_of(i) as usize] = true;
    }
    let resolvers = seen.iter().filter(|&&s| s).count();
    let ttls: Vec<u32> = outcome.series.iter().map(|s| s.ttl).collect();
    if ttls != cfg.ttls {
        return Err(format!("fig1: TTL cells {ttls:?}, want {:?}", cfg.ttls));
    }
    for s in &outcome.series {
        if s.cdf.len() != resolvers || s.cdf.min() <= 0.0 {
            return Err(format!(
                "fig1: TTL {} has {} blow-ups (min {}) for {resolvers} resolvers",
                s.ttl,
                s.cdf.len(),
                s.cdf.min()
            ));
        }
    }
    Ok(Round {
        setup_s,
        wall_s,
        cpu_s,
        ops: RECORDS,
        attempted: RECORDS,
        failed: 0,
        lat: None,
    })
}

/// The first `n` records of another model's stream, unchanged.
pub struct Prefix {
    inner: CdnStreamModel,
    n: u64,
}

impl WorkloadModel for Prefix {
    fn label(&self) -> &str {
        self.inner.label()
    }
    fn total(&self) -> u64 {
        self.n.min(self.inner.total())
    }
    fn resolver_addrs(&self) -> &[IpAddr] {
        self.inner.resolver_addrs()
    }
    fn names(&self) -> &NameTable {
        self.inner.names()
    }
    fn resolver_of(&self, i: u64) -> u32 {
        self.inner.resolver_of(i)
    }
    fn record(&self, i: u64) -> StreamRecord {
        self.inner.record(i)
    }
}

/// Per-resolver (lookups, hits obeying ECS, hits ignoring ECS, peak
/// entries obeying ECS, peak entries ignoring ECS).
type Tally = (u64, u64, u64, usize, usize);

/// The reference replay: a plain per-resolver list of cache entries,
/// written from RFC 7871 §7.3 alone. An entry stored for source prefix S
/// with response scope s covers S truncated to min(s, |S|); an entry
/// lives while `now < insert time + TTL`; a miss inserts. Peaks count a
/// resolver's live entries right after an insert.
fn naive_replay(model: &Prefix, ttl: u32) -> HashMap<IpAddr, Tally> {
    struct Cache {
        ecs: Vec<(u32, Option<IpPrefix>, u64)>,
        plain: Vec<(u32, u64)>,
        tally: Tally,
    }
    let ttl_us = u64::from(ttl) * 1_000_000;
    let mut caches: HashMap<u32, Cache> = HashMap::new();
    for i in 0..model.total() {
        let r = model.record(i);
        let now = r.at_micros;
        let c = caches.entry(r.resolver_id).or_insert_with(|| Cache {
            ecs: Vec::new(),
            plain: Vec::new(),
            tally: (0, 0, 0, 0, 0),
        });
        c.ecs.retain(|e| e.2 > now);
        c.plain.retain(|e| e.1 > now);
        c.tally.0 += 1;
        if c.plain.iter().any(|e| e.0 == r.name_id) {
            c.tally.2 += 1;
        } else {
            c.plain.push((r.name_id, now + ttl_us));
            c.tally.4 = c.tally.4.max(c.plain.len());
        }
        let covers = |p: &Option<IpPrefix>| match (p, &r.ecs_source) {
            (None, _) => true,
            (Some(p), Some(s)) => p.is_default_route() || p.covers(s),
            (Some(p), None) => p.is_default_route(),
        };
        if c.ecs.iter().any(|e| e.0 == r.name_id && covers(&e.1)) {
            c.tally.1 += 1;
        } else {
            let prefix = match (r.ecs_source, r.response_scope) {
                (Some(src), Some(scope)) => Some(src.truncate(scope.min(src.len()))),
                _ => None,
            };
            c.ecs.push((r.name_id, prefix, now + ttl_us));
            c.tally.3 = c.tally.3.max(c.ecs.len());
        }
    }
    let addrs = model.resolver_addrs();
    caches
        .into_iter()
        .map(|(rid, c)| (addrs[rid as usize], c.tally))
        .collect()
}

/// For every TTL cell, replays the first [`CHECK_RECORDS`] records of the
/// run's stream three times — the reference replay above, and
/// `run_streaming` at parallelism 1 and 2 — and requires identical
/// per-resolver lookups, hits and peaks.
pub fn check_prefix(seed: u64) -> Result<(), String> {
    let cfg = config(seed, RECORDS);
    let source = TraceStreamSource::new(Prefix {
        inner: cfg.stream.build(),
        n: CHECK_RECORDS,
    });
    for &ttl in &cfg.ttls {
        check_prefix_at(&source, ttl)?;
    }
    Ok(())
}

fn check_prefix_at(source: &TraceStreamSource<Prefix>, ttl: u32) -> Result<(), String> {
    let want = naive_replay(source.model(), ttl);
    for parallelism in [1, 2] {
        let result = CacheSimulator::new(CacheSimConfig {
            ttl_override: Some(ttl),
            parallelism,
            ..CacheSimConfig::default()
        })
        .run_streaming(source);
        if result.per_resolver.len() != want.len() {
            return Err(format!(
                "prefix replay at TTL {ttl}, parallelism {parallelism}: {} resolvers, reference {}",
                result.per_resolver.len(),
                want.len()
            ));
        }
        for r in &result.per_resolver {
            let got = (
                r.lookups,
                r.hits_ecs,
                r.hits_no_ecs,
                r.max_size_ecs,
                r.max_size_no_ecs,
            );
            if want.get(&r.resolver) != Some(&got) {
                return Err(format!(
                    "prefix replay at TTL {ttl}, parallelism {parallelism}, resolver {}: {got:?}, reference {:?}",
                    r.resolver,
                    want.get(&r.resolver)
                ));
            }
        }
    }
    Ok(())
}
