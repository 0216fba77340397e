//! Proof that the observability spans are actually on the solver paths:
//! with tracing enabled, one run of each driver must leave the expected
//! span families in the sink, properly nested per track. A single
//! `#[test]` owns this binary — the span sink is process-wide, and a
//! sibling test draining it concurrently would race.

use mincut_core::parallel::{parallel_minimum_cut, ParCutConfig};
use mincut_core::viecut::{viecut, VieCutConfig};
use mincut_core::{Session, SolveOptions};
use mincut_graph::generators::known;
use mincut_obs::EventPhase;

#[test]
fn enabled_tracing_captures_every_solver_layer() {
    mincut_obs::set_tracing(true);
    let _ = mincut_obs::take_events(); // a clean slate

    let (g, lambda) = known::ring_of_cliques(6, 8, 2, 1);

    // Sequential NOI through the session (kernelization on): solve +
    // reduce + noi + capforest spans.
    let outcome = Session::new(&g)
        .options(SolveOptions::new().seed(5))
        .run("noi")
        .expect("solve");
    assert_eq!(outcome.cut.value, lambda);

    // VieCut: level spans plus the exact-remainder handoff. Needs a
    // graph above the exact threshold (128) or no level ever runs.
    let (big, big_lambda) = known::two_communities(100, 100, 2, 2, 1);
    let vc = viecut(&big, &VieCutConfig::default());
    assert!(vc.value >= big_lambda);

    // ParCut with several workers: round spans plus one named track per
    // logical worker.
    let pc = parallel_minimum_cut(
        &g,
        &ParCutConfig {
            threads: 3,
            ..Default::default()
        },
    );
    assert_eq!(pc.value, lambda);

    let (events, threads) = mincut_obs::take_events();
    mincut_obs::set_tracing(false);

    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    for name in [
        "solve",
        "reduce/pass",
        "capforest/scan",
        "noi/round",
        "viecut/level",
        "viecut/exact-remainder",
        "parcut/round",
        "parcut/worker-scan",
    ] {
        assert!(count(name) > 0, "no {name:?} span recorded");
    }

    // Label propagation has its own span: exactly one per VieCut level,
    // nested inside it. Spans are recorded as they close, so on each
    // track every level is directly preceded by its own `viecut/lp`.
    let tracks: std::collections::BTreeSet<u64> = events.iter().map(|e| e.tid).collect();
    for tid in tracks {
        let seq: Vec<_> = events
            .iter()
            .filter(|e| e.tid == tid && matches!(e.name, "viecut/lp" | "viecut/level"))
            .collect();
        assert_eq!(seq.len() % 2, 0, "unpaired viecut/lp or viecut/level span");
        for pair in seq.chunks(2) {
            let (lp, level) = (pair[0], pair[1]);
            assert_eq!((lp.name, level.name), ("viecut/lp", "viecut/level"));
            assert!(
                lp.ts_us >= level.ts_us && lp.ts_us + lp.dur_us <= level.ts_us + level.dur_us,
                "viecut/lp not nested in its level"
            );
            for key in ["n", "m", "clusters"] {
                assert!(lp.arg(key).is_some(), "viecut/lp span missing arg {key:?}");
            }
        }
    }

    // The solve span carries the telemetry args the exporter documents.
    let solve = events
        .iter()
        .find(|e| e.name == "solve")
        .expect("checked above");
    assert_eq!(solve.phase, EventPhase::Complete);
    for key in ["algorithm", "n", "m", "lambda"] {
        assert!(solve.arg(key).is_some(), "solve span missing arg {key:?}");
    }

    // Scoped per-round workers record on stable named tracks, not one
    // fresh track per spawned OS thread: every worker-scan span's track
    // resolves to a `parcut-worker-<i>` name, and there are at most as
    // many such tracks as configured workers.
    let worker_tracks: std::collections::BTreeSet<u64> = events
        .iter()
        .filter(|e| e.name == "parcut/worker-scan")
        .map(|e| e.tid)
        .collect();
    assert!(!worker_tracks.is_empty());
    assert!(worker_tracks.len() <= 3, "more tracks than logical workers");
    for tid in &worker_tracks {
        let name = threads
            .iter()
            .find(|(t, _)| t == tid)
            .map(|(_, n)| n.as_str())
            .expect("every track is registered");
        assert!(
            name.starts_with("parcut-worker-"),
            "worker span on unexpected track {name:?}"
        );
    }

    // Structural soundness of everything recorded, as the exporter
    // checks it.
    mincut_obs::validate_events(&events).expect("span families must be laminar per track");
}
