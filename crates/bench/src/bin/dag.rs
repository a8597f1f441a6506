//! **E20 — the maintenance DAG: view-over-view stacks at zero source
//! cost**: register a handwritten stack of derived views (σ/Π and
//! Σ/group-by, including stacks over stacks) on top of a base SWEEP view
//! and compare the run against a stack-free referee on the identical
//! scenario. The cascade feeds every child locally from its parent's
//! committed install delta, so the source-message bill is paid exactly
//! once at the base layer — `2(n−1)` per update (§5), with child
//! maintenance costing **zero** source messages — while identical
//! sibling derivations share one evaluation per epoch and every derived
//! view tracks a fresh recompute of its operator over the parent at
//! every install epoch.
//!
//! Scenario, sweep points, rows and laws are the `dw_bench::perf::E20Row`
//! phase; this file is presentation.

use dw_bench::perf::{self, E20Row};
use dw_bench::TableWriter;

fn main() {
    let args = dw_bench::BenchArgs::parse();
    // The laws: the base bill exactly on 2(n−1) and byte-identical to the
    // stack-free referee; every derived view at fresh-recompute fidelity.
    let (rows, _) = perf::measure_checked::<E20Row>(args.smoke);
    println!(
        "maintenance DAG ({} sources, {} updates, 2 ms links; one full-span\n\
         SWEEP base view with a derived stack cascaded locally on top)\n",
        rows[0].n, rows[0].updates
    );
    let mut t = TableWriter::new([
        "stack",
        "derived",
        "msgs/upd",
        "referee",
        "child bill",
        "child installs",
        "memo hits",
        "fresh evals",
        "sharing",
        "oracle",
    ]);

    for row in &rows {
        t.row([
            row.label.clone(),
            row.derived.to_string(),
            format!("{:.2}", row.msgs_per_update),
            format!("{:.2}", row.baseline_msgs_per_update),
            row.derived_source_msgs.to_string(),
            row.child_installs.to_string(),
            row.shared_derivations.to_string(),
            row.linear_evals.to_string(),
            format!("{:.2}", row.sharing_ratio),
            row.aggregate_fidelity.to_string(),
        ]);
    }
    t.print();
    println!(
        "\npaper shape check: the base layer pays the paper's 2(n−1) = 4 messages\n\
         per update once; every derived view — aggregates included — is maintained\n\
         from the parent's committed install delta at the warehouse, adding zero\n\
         source traffic, and equals a fresh recompute over its parent at every\n\
         install epoch. Identical sibling derivations share one evaluation."
    );
}
