//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench gen   --workload W --seed S --out DIR
//! perfbench run   --workload W --seed S --seconds T --trace 0|1 --dir DIR
//! perfbench shape --seed A --seed B
//! ```
//!
//! `gen` writes the seeded inputs (packs, trace, oracle answers) in a
//! process of its own; `run` measures them and prints one JSON object
//! as its last line; `shape` checks that two seeds generate workloads of
//! the same shape. `run.py` drives all three; see README.md.

mod layers;
mod measure;
mod workload;

use std::path::PathBuf;
use std::process::exit;

use layers::{metric, Metric};
use measure::{end_to_end, median, Checks, Registered};
use workload::{Workload, STREAM_WINDOW};

/// `load_pack` rounds over every pack behind the traced run's
/// `ingest.load_s` (their median).
const STATIC_LOAD_REPS: usize = 21;
/// Set-ups a static run repeats after each round of its loop. `setup_s`
/// is the median of every set-up in the run, spread over the whole run
/// so that one slow spell of the host does not set it.
const STATIC_SETUP_REPS_PER_ROUND: usize = 3;
/// Untraced default solves of the stream's base graph that the traced
/// run's per-layer accounting compares against.
const STREAM_SOLVE_REPS: usize = 5;

struct Args {
    mode: String,
    workload: Option<Workload>,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    dir: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench gen --workload W --seed S --out DIR\n       \
         perfbench run --workload W --seed S --seconds T --trace 0|1 --dir DIR\n       \
         perfbench shape --seed A --seed B"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_else(|| usage("missing mode"));
    let mut args = Args {
        mode,
        workload: None,
        seeds: Vec::new(),
        seconds: 0.0,
        trace: false,
        dir: None,
    };
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = |what: &str| -> ! { usage(&format!("bad {what} {value:?}")) };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::parse(&value).unwrap_or_else(|| bad("workload")))
            }
            "--seed" => args
                .seeds
                .push(value.parse().unwrap_or_else(|_| bad("seed"))),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .unwrap_or_else(|| bad("seconds"))
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad("trace"),
                }
            }
            "--out" | "--dir" => args.dir = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status")
        / 1024.0
}

fn print_result(checks: &Checks, metrics: &[Metric]) -> ! {
    for m in metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    // JSON has no NaN or infinity: a metric without a value fails the run.
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} has no finite value", m.name);
        exit(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    let correct = checks.failed == 0 && checks.attempted > 0;
    println!(
        "failed_frac {} ({} of {} answers)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
    exit(if correct { 0 } else { 1 })
}

fn e2e_metrics(ops: &[measure::Op], window: usize, setup_s: f64) -> Vec<Metric> {
    let e = end_to_end(ops, window);
    vec![
        metric("edges_per_s", e.edges_per_s, "edges/s"),
        metric("ns_per_edge_p50", e.ns_per_edge_p50, "ns"),
        metric("ns_per_edge_p90", e.ns_per_edge_p90, "ns"),
        metric("ops_per_s", e.ops_per_s, "1/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

fn describe(label: &str, ops: &[measure::Op], window: usize) {
    let e = end_to_end(ops, window);
    println!(
        "{label}: {} operations, {:.0} edges/s, {:.1} ns/edge p50, {:.1} ns/edge p90, \
         {:.2} ops/s",
        e.ops, e.edges_per_s, e.ns_per_edge_p50, e.ns_per_edge_p90, e.ops_per_s
    );
    let rates: Vec<String> = e.window_rates.iter().map(|r| format!("{r:.0}")).collect();
    println!("{label}: edges/s per window: {}", rates.join(" "));
}

/// Prints the end-to-end numbers of the untraced and traced operations
/// of one alternating loop and returns the tracing overhead: untraced
/// edges/s ÷ traced edges/s − 1.
fn tracing_overhead(
    untraced: &[measure::Op],
    traced: &[measure::Op],
    window: usize,
    spans: u64,
) -> f64 {
    describe("untraced", untraced, window);
    describe("traced", traced, window);
    let (u, t) = (end_to_end(untraced, window), end_to_end(traced, window));
    let overhead = u.edges_per_s / t.edges_per_s - 1.0;
    println!(
        "tracing overhead: {:+.2}% time per edge, {:+.2}% ns/edge p50 ({spans} span events)",
        overhead * 100.0,
        (t.ns_per_edge_p50 / u.ns_per_edge_p50 - 1.0) * 100.0
    );
    overhead
}

fn run(args: &Args) -> ! {
    let w = args.workload.unwrap_or_else(|| usage("missing --workload"));
    let seed = *args
        .seeds
        .first()
        .unwrap_or_else(|| usage("missing --seed"));
    let dir = args.dir.as_ref().unwrap_or_else(|| usage("missing --dir"));
    if args.seconds <= 0.0 {
        usage("missing --seconds");
    }
    let manifest = workload::read_manifest(dir).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(1)
    });
    let hardware_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Solver threads: every core of the box, as the default options use.
    let nproc = hardware_threads;
    println!(
        "# workload={} seed={seed} seconds={} trace={} simd_tier={} nproc={nproc} \
         hardware_threads={hardware_threads} SMC_TRACE={} SMC_SIMD={} oracle={}",
        w.name(),
        args.seconds,
        args.trace as u8,
        mincut_ds::simd::active_tier().name(),
        std::env::var("SMC_TRACE").unwrap_or_else(|_| "unset".into()),
        std::env::var("SMC_SIMD").unwrap_or_else(|_| "unset".into()),
        workload::ORACLE_SOLVER,
    );
    mincut_obs::set_tracing(false);
    let mut checks = Checks::default();
    let fail = |e: String| -> ! {
        eprintln!("perfbench: {e}");
        exit(1)
    };

    if w == Workload::StreamCactus {
        if manifest.traces.len() != manifest.graphs.len() {
            fail("stream manifest needs one trace per graph".into());
        }
        // Set-up: register every ring. The untimed run registers every
        // ring again on fresh services after each window of its loop;
        // setup_s is the median of the per-round totals.
        let mut regs: Vec<Registered> = Vec::new();
        let mut bases = Vec::new();
        for spec in &manifest.graphs {
            let (reg, g) = measure::register(&dir.join(&spec.file)).unwrap_or_else(|e| fail(e));
            regs.push(reg);
            bases.push(g);
        }
        let mut setup_times = vec![regs.iter().map(|reg| reg.setup_s).sum::<f64>()];
        let mut traces = Vec::new();
        for (file, base) in manifest.traces.iter().zip(&bases) {
            let text = std::fs::File::open(dir.join(file))
                .unwrap_or_else(|e| fail(format!("open trace {file}: {e}")));
            traces.push(
                mincut_core::parse_trace(std::io::BufReader::new(text), base.n())
                    .unwrap_or_else(|e| fail(format!("parse trace {file}: {e}"))),
            );
        }
        for ((spec, base), trace) in manifest.graphs.iter().zip(&bases).zip(&traces) {
            println!(
                "# ring {} n={} m={} lambda={} trace ops={}",
                spec.family,
                base.n(),
                base.m(),
                spec.lambda,
                trace.len()
            );
        }
        let rings = make_rings(&regs, &bases, &traces);
        if !args.trace {
            let mut setup = || {
                let round: f64 = manifest
                    .graphs
                    .iter()
                    .map(|spec| {
                        let (reg, _) =
                            measure::register(&dir.join(&spec.file)).unwrap_or_else(|e| fail(e));
                        reg.setup_s
                    })
                    .sum();
                setup_times.push(round);
            };
            let run = measure::stream_loop(&rings, args.seconds, false, &mut checks, &mut setup);
            describe("stream", &run.ops, STREAM_WINDOW);
            println!("dynamic stats: {}", run.dynamic.to_json());
            let setup_s = median(&setup_times);
            print_result(&checks, &e2e_metrics(&run.ops, STREAM_WINDOW, setup_s));
        }
        let run = measure::stream_loop(&rings, args.seconds, true, &mut checks, &mut || {});
        let overhead = tracing_overhead(&run.ops, &run.traced_ops, STREAM_WINDOW, run.span_events);
        let (loaded, load_s, bytes) = measure::load_graphs(dir, &manifest.graphs, STATIC_LOAD_REPS)
            .unwrap_or_else(|e| fail(e));
        let mut metrics = vec![
            metric("ingest.load_s", load_s, "s"),
            metric("ingest.bytes", bytes as f64, "bytes"),
        ];
        // The static layers on the first ring's base graph, against the
        // median of a few untraced default solves of it.
        let solve_s = layers::median_solve_s(&loaded[0].graph, STREAM_SOLVE_REPS);
        metrics.extend(layers::static_layers(
            &[(&loaded[0], solve_s)],
            nproc,
            seed,
            &mut checks,
        ));
        metrics.extend(layers::stream_layers(&run));
        metrics.push(metric("obs.trace_overhead_frac", overhead, "ratio"));
        metrics.push(metric("obs.span_events", run.span_events as f64, "count"));
        print_result(&checks, &metrics);
    }

    let load_reps = if args.trace { STATIC_LOAD_REPS } else { 1 };
    let (graphs, load_s, bytes) =
        measure::load_graphs(dir, &manifest.graphs, load_reps).unwrap_or_else(|e| fail(e));
    for l in &graphs {
        println!(
            "# graph {} n={} m={} lambda={}",
            l.family,
            l.graph.n(),
            l.graph.m(),
            l.lambda
        );
    }
    if !args.trace {
        let mut setup_times = vec![load_s];
        let mut setup = || {
            for _ in 0..STATIC_SETUP_REPS_PER_ROUND {
                let (_, s, _) =
                    measure::load_graphs(dir, &manifest.graphs, 1).unwrap_or_else(|e| fail(e));
                setup_times.push(s);
            }
        };
        let run = measure::static_loop(&graphs, args.seconds, false, &mut checks, &mut setup);
        describe(w.name(), &run.ops, graphs.len());
        let setup_s = median(&setup_times);
        print_result(&checks, &e2e_metrics(&run.ops, graphs.len(), setup_s));
    }
    let run = measure::static_loop(&graphs, args.seconds, true, &mut checks, &mut || {});
    let overhead = tracing_overhead(&run.ops, &run.traced_ops, graphs.len(), run.span_events);
    let mut metrics = vec![
        metric("ingest.load_s", load_s, "s"),
        metric("ingest.bytes", bytes as f64, "bytes"),
    ];
    // One graph per family (the replicas would only repeat the probe),
    // with the median untraced time of its solves in the loop above.
    let solve_s = measure::per_graph_median(&run.ops, graphs.len());
    let mut seen = std::collections::HashSet::new();
    let probes: Vec<(&measure::Loaded, f64)> = graphs
        .iter()
        .zip(solve_s)
        .filter(|(l, _)| seen.insert(&l.family))
        .collect();
    metrics.extend(layers::static_layers(&probes, nproc, seed, &mut checks));
    // The dynamic, cactus and service layers on the small stream probe.
    let (probe_graph, probe_trace) = workload::probe_stream(seed);
    let probe = measure::register_graph(probe_graph.clone()).unwrap_or_else(|e| fail(e));
    let probe_ring = measure::Ring {
        reg: &probe,
        base: &probe_graph,
        trace: &probe_trace,
        cluster: workload::PROBE_CLUSTER,
    };
    let probe_run =
        measure::stream_loop(&[probe_ring], f64::INFINITY, false, &mut checks, &mut || {});
    metrics.extend(layers::stream_layers(&probe_run));
    metrics.push(metric("obs.trace_overhead_frac", overhead, "ratio"));
    metrics.push(metric("obs.span_events", run.span_events as f64, "count"));
    print_result(&checks, &metrics)
}

fn make_rings<'a>(
    regs: &'a [Registered],
    bases: &'a [mincut_graph::CsrGraph],
    traces: &'a [Vec<mincut_core::TraceOp>],
) -> Vec<measure::Ring<'a>> {
    regs.iter()
        .zip(bases)
        .zip(traces)
        .map(|((reg, base), trace)| measure::Ring {
            reg,
            base,
            trace,
            cluster: workload::STREAM_BLOCK_SIZE,
        })
        .collect()
}

/// Held-out-seed check: two seeds must generate the same families,
/// vertex counts within 25% (exactly equal for fixed-n families), edge
/// counts within 25%, and the same operation mix.
fn shape(args: &Args) -> ! {
    let [a, b] = args.seeds[..] else {
        usage("shape needs two --seed values")
    };
    let mut same = true;
    for w in Workload::ALL {
        let (sa, sb) = (workload::shape(w, a), workload::shape(w, b));
        for (la, lb) in sa.iter().zip(&sb) {
            let ok = shapes_match(la, lb);
            same &= ok;
            println!(
                "{:<14} {la:<48} | {lb:<48} {}",
                w.name(),
                if ok { "ok" } else { "DIFFERENT" }
            );
        }
        same &= sa.len() == sb.len();
    }
    println!("same shape: {same}");
    exit(if same { 0 } else { 1 })
}

fn shapes_match(a: &str, b: &str) -> bool {
    if a.starts_with("trace") {
        return a == b;
    }
    let fields = |s: &str| -> (String, f64, f64) {
        let mut it = s.split_whitespace();
        let family = it.next().unwrap_or_default().to_string();
        let mut num = |key: &str| -> f64 {
            it.next()
                .and_then(|f| f.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or(f64::NAN)
        };
        let n = num("n=");
        let m = num("m=");
        (family, n, m)
    };
    let (fa, na, ma) = fields(a);
    let (fb, nb, mb) = fields(b);
    let close = |x: f64, y: f64| (x - y).abs() <= 0.25 * x.max(y);
    let fixed_n = fa.starts_with("rhg") || fa.starts_with("ring");
    fa == fb && (if fixed_n { na == nb } else { close(na, nb) }) && close(ma, mb)
}

fn main() {
    let args = parse_args();
    match args.mode.as_str() {
        "gen" => {
            let w = args.workload.unwrap_or_else(|| usage("missing --workload"));
            let seed = *args
                .seeds
                .first()
                .unwrap_or_else(|| usage("missing --seed"));
            let dir = args.dir.as_ref().unwrap_or_else(|| usage("missing --out"));
            if let Err(e) = workload::generate(w, seed, dir) {
                eprintln!("perfbench: generating {}: {e}", w.name());
                exit(1);
            }
        }
        "run" => run(&args),
        "shape" => shape(&args),
        other => usage(&format!("unknown mode {other}")),
    }
}
