//! The service's cache counters have one source of truth: every
//! `CacheStats` hit, miss and invalidation is also exactly one
//! `service.cache.*` registry counter increment. A replay of the
//! hand-verified `tests/data/barbell.trace` with cactus maintenance and
//! `qc`/`qs` queries after every operation exercises the cut cache and
//! the cactus cache alike.
//!
//! This file holds a single test on purpose: integration test files run
//! as their own process, so no other test moves the process-wide metrics
//! registry while the deltas are taken.

use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use sm_mincut::graph::io::read_edge_list;
use sm_mincut::{parse_trace, CacheStats, MinCutService, ServiceConfig, SolveOptions, TraceOp};

fn data(name: &str) -> BufReader<File> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data")
        .join(name);
    BufReader::new(File::open(&path).unwrap_or_else(|e| panic!("{name}: {e}")))
}

/// `(hits, misses, invalidations)` as the service reports them.
fn service_counts(stats: CacheStats) -> [u64; 3] {
    [stats.hits, stats.misses, stats.invalidations]
}

/// `(hits, misses, invalidations)` as the metrics registry reports them.
fn registry_counts() -> [u64; 3] {
    let m = sm_mincut::obs::metrics();
    ["hits", "misses", "invalidations"].map(|c| m.counter(&format!("service.cache.{c}")).get())
}

#[test]
fn cache_stats_and_registry_counters_move_together() {
    let g = read_edge_list(data("barbell.txt"), None).unwrap();
    let ops = parse_trace(data("barbell.trace"), g.n()).unwrap();
    let service = MinCutService::new(ServiceConfig::new());
    let service0 = service_counts(service.cache_stats());
    let registry0 = registry_counts();

    let handle = service
        .register_dynamic_with_cactus(g, "noi-viecut", SolveOptions::new())
        .unwrap();
    let (u, v) = (0, 5); // one vertex from each triangle of the barbell
    for op in &ops {
        service.dynamic_update(handle, op).unwrap();
        service.dynamic_lambda(handle).unwrap();
        // `qc`: a count served from the epoch's cactus.
        service
            .dynamic_update(handle, &TraceOp::QueryCount)
            .unwrap();
        let (cactus, _) = service.dynamic_cactus(handle).unwrap();
        assert!(cactus.count_min_cuts() >= 1);
        // `qs u v`: a separating query served from the same cactus.
        service
            .dynamic_update(handle, &TraceOp::QuerySeparating { u, v })
            .unwrap();
        service.min_cuts_separating_many(handle, &[(u, v)]).unwrap();
    }

    let delta = |now: [u64; 3], then: [u64; 3]| [0, 1, 2].map(|i| now[i] - then[i]);
    let service_delta = delta(service_counts(service.cache_stats()), service0);
    let registry_delta = delta(registry_counts(), registry0);
    assert_eq!(
        service_delta, registry_delta,
        "CacheStats (hits, misses, invalidations) vs service.cache.* counters"
    );
    assert!(
        service_delta.iter().all(|&d| d > 0),
        "the replay must exercise every counter: {service_delta:?}"
    );
}
