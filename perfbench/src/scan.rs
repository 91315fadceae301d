//! `scan-fresh`: `scanner::run_scan` over a world of healthy forwarders
//! relaying to one egress resolver. Every probe carries a fresh qname,
//! so every probe is an egress cache miss and an insert into a growing
//! cache; the per-AS rate limit is set far above the scan's pace.
//!
//! A round builds a fresh world (set-up) and scans [`PROBES`] probes, so
//! the cache occupancy a round reaches is fixed by the round, not by the
//! run's length.

use std::collections::HashSet;
use std::time::Instant;

use netsim::SimDuration;
use scanner::{
    run_scan, ForwarderChainSpec, ForwarderHealth, RoundRobinFeed, ScanCapture, ScanConfig,
};

use crate::{sys, timed_setup, Round};

/// Probes per round.
pub const PROBES: u64 = 4_000;
/// Forwarders, split evenly over [`ASES`] autonomous systems.
pub const FORWARDERS: usize = 400;
pub const ASES: u32 = 4;
const WINDOW: usize = 256;

/// What a round's layers did, for the traced run.
#[derive(Default, Clone, Copy)]
pub struct ScanCounters {
    pub delivered: u64,
    pub attempts: u64,
}

pub fn round(seed: u64, round: u64, probes: u64) -> Result<(Round, ScanCounters), String> {
    let cfg = ScanConfig {
        window: WINDOW,
        rate_per_sec: 1_000_000,
        burst: WINDOW as u64,
        ..ScanConfig::default()
    };
    let zone = cfg.zone.clone();
    let (setup_s, mut world) = timed_setup(|| {
        let mut spec = ForwarderChainSpec::new(seed.wrapping_mul(1000).wrapping_add(round));
        for asn in 0..ASES {
            spec = spec.group(
                FORWARDERS / ASES as usize,
                ForwarderHealth::Healthy,
                64_500 + asn,
            );
        }
        spec.build(cfg.clone(), |targets| {
            RoundRobinFeed::new(targets.to_vec(), probes)
        })
    });
    let egress = world.egress_addrs[0];
    // Keep every authoritative log entry: the check below needs them all.
    let mut capture = ScanCapture::new(probes as usize);

    let cpu0 = sys::cpu_ns();
    let t0 = Instant::now();
    let report = run_scan(&mut world, SimDuration::from_secs(60), &mut capture);
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = (sys::cpu_ns() - cpu0) as f64 / 1e9;

    let s = report.stats;
    if !report.reconciled || report.stuck {
        return Err(format!("scan did not reconcile: {}", report.to_json()));
    }
    if s.probes != probes || s.answered != probes {
        return Err(format!(
            "scan answered {} of {} probes",
            s.answered, s.probes
        ));
    }
    if capture.total != probes || capture.cap_dropped != 0 || capture.resolvers() != 1 {
        return Err(format!(
            "authoritative saw {} queries from {} resolvers for {probes} probes",
            capture.total,
            capture.resolvers()
        ));
    }
    let entries = capture.entries_for(egress);
    let names: HashSet<String> = entries.iter().map(|e| e.qname.to_string()).collect();
    if names.len() as u64 != probes || entries.len() as u64 != probes {
        return Err(format!(
            "authoritative saw {} distinct probe names in {} queries for {probes} probes",
            names.len(),
            entries.len()
        ));
    }
    if let Some(stray) = names
        .iter()
        .find(|n| !n.trim_end_matches('.').ends_with(&zone))
    {
        return Err(format!(
            "authoritative saw a name outside the zone: {stray}"
        ));
    }
    let counters = ScanCounters {
        delivered: world.sim.delivered(),
        attempts: s.attempts,
    };
    Ok((
        Round {
            setup_s,
            wall_s,
            cpu_s,
            ops: s.answered,
            attempted: probes,
            failed: probes - s.answered,
            lat: None,
        },
        counters,
    ))
}
