//! Regenerates **Figure 5** of the paper: strong-scaling of the parallel
//! algorithm. For five large instances and p ∈ {1, 2, 4, 8, 12, 24}
//! (capped by the machine), it reports, per queue variant:
//!
//! * top row of the paper — self-relative scalability
//!   `t(ParCut, 1 thread) / t(ParCut, p threads)`;
//! * bottom row — speedup against the best *sequential* algorithm
//!   (NOIλ̂-BStack or NOIλ̂-Heap, whichever is faster per instance), the
//!   ratio in which the paper reports its headline 12.9×.
//!
//! NOTE on this machine: with a single hardware core, the scalability
//! numbers necessarily hover around (or below) 1; the harness and its
//! output format are the deliverable, the absolute speedups are not
//! reproducible without cores.

use mincut_bench::instances::{fig5_instances, fig5_thread_counts, Scale};
use mincut_bench::report::{BenchEntry, BenchReport};
use mincut_bench::runner::{run_avg, BenchSpec};
use mincut_bench::table::Table;
use mincut_core::PqKind;

fn main() {
    let scale = Scale::from_env();
    let reps = scale.repetitions();
    let threads = fig5_thread_counts();
    let mut report = BenchReport::new("fig5_scaling", scale);
    println!("== Figure 5: scaling of ParCutλ̂ (scale {scale:?}, threads {threads:?}) ==\n");

    let mut table = Table::new(&[
        "graph",
        "pq",
        "threads",
        "lambda",
        "seconds",
        "scalability",
        "speedup_vs_best_seq",
    ]);

    for inst in fig5_instances(scale) {
        let g = &inst.graph;
        eprintln!("[instance {} : n={} m={}]", inst.name, g.n(), g.m());

        // Best sequential baseline, as in the paper's bottom row.
        let (seq_value, t_heap) = run_avg(g, &BenchSpec::noi_bounded(PqKind::Heap), reps, 3);
        let (_, t_bstack) = run_avg(g, &BenchSpec::noi_bounded(PqKind::BStack), reps, 3);
        let best_seq = t_heap.min(t_bstack);
        for (spec, secs) in [
            (BenchSpec::noi_bounded(PqKind::Heap), t_heap),
            (BenchSpec::noi_bounded(PqKind::BStack), t_bstack),
        ] {
            let mut entry = BenchEntry::named(&inst.name, &spec.solver, spec.threads, g.n(), g.m());
            entry.lambda = seq_value;
            entry.wall_s = secs;
            entry.reps = reps;
            report.push(entry);
        }

        for pq in [PqKind::BStack, PqKind::BQueue, PqKind::Heap] {
            let mut t1 = None;
            for &p in &threads {
                let spec = BenchSpec::parcut(pq, p);
                let (value, secs) = run_avg(g, &spec, reps, 5);
                assert_eq!(value, seq_value, "parallel result must match sequential");
                let mut entry =
                    BenchEntry::named(&inst.name, &spec.solver, spec.threads, g.n(), g.m());
                entry.lambda = value;
                entry.wall_s = secs;
                entry.reps = reps;
                report.push(entry);
                let t1v = *t1.get_or_insert(secs);
                table.row(vec![
                    inst.name.clone(),
                    pq.to_string(),
                    p.to_string(),
                    value.to_string(),
                    format!("{secs:.4}"),
                    format!("{:.2}", t1v / secs),
                    format!("{:.2}", best_seq / secs),
                ]);
            }
        }
    }
    table.emit("fig5_scaling");
    match report.write() {
        Ok(path) => eprintln!("report: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write report: {e}"),
    }
    println!("\nPaper reference points: ParCutλ̂-BQueue reaches speedup 12.9x at");
    println!("24 threads on twitter-2010 k=50; sequential-dominant instances");
    println!("(low minimum degree) only break even at several threads.");
}
