//! Table I — HPC workload characteristics, plus the derived per-app
//! latencies every later experiment hinges on.

use pckpt_analysis::Table;
use pckpt_core::{ModelKind, SimParams};
use pckpt_ioperf::GB;
use pckpt_workloads::TABLE_I;

fn main() {
    pckpt_bench::knobs();
    let mut t = Table::new(vec![
        "application",
        "nodes",
        "ckpt total (GB)",
        "ckpt/node (GB)",
        "compute (h)",
    ])
    .with_title("Table I — HPC workload characteristics (Summit-scaled per Eq. 3)");
    for app in &TABLE_I {
        t.row(vec![
            app.name.to_string(),
            format!("{}", app.nodes),
            format!("{:.1}", app.checkpoint_total / GB),
            format!("{:.2}", app.checkpoint_per_node_gb()),
            format!("{:.0}", app.compute_hours),
        ]);
    }
    println!("{t}");

    let mut d = Table::new(vec![
        "application",
        "t_bb (s)",
        "t_pfs_1node (s)",
        "t_pfs_all (s)",
        "theta_LM (s)",
        "OCI eq.1 (h)",
    ])
    .with_title("Derived latencies (Summit I/O model, Titan failure rates)");
    for app in &TABLE_I {
        let p = SimParams::paper_defaults(ModelKind::P2, *app);
        let oci = pckpt_core::oci::young_oci_secs(
            p.bb_write_secs(),
            p.distribution.job_rate(app.nodes),
        );
        d.row(vec![
            app.name.to_string(),
            format!("{:.1}", p.bb_write_secs()),
            format!("{:.1}", p.io.pfs.single_node_write_secs(p.per_node_bytes())),
            format!("{:.1}", p.io.pfs.write_secs(app.nodes, p.per_node_bytes())),
            format!("{:.1}", p.theta_secs()),
            format!("{:.2}", oci / 3600.0),
        ]);
    }
    println!("{d}");
    println!(
        "t_pfs_1node is the p-ckpt phase-1 latency; t_pfs_all is the safeguard commit;\n\
         theta_LM the live-migration latency (alpha = 3, DRAM-capped, pre-copy 1.45x)."
    );
}
