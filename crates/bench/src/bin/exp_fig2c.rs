//! Fig. 2c — weak-scaling aggregate bandwidth heat map.
//!
//! Renders the (node count × per-node transfer size) performance matrix
//! the simulation looks checkpoint-commit times up in.

use pckpt_analysis::HeatMap;
use pckpt_ioperf::{PfsModel, GB, TB};

fn main() {
    pckpt_bench::knobs();
    let pfs = PfsModel::summit();
    let nodes: Vec<u64> = (0..=12).map(|e| 1u64 << e).collect(); // 1..4096
    let sizes: Vec<f64> = [0.5, 2.0, 8.0, 32.0, 128.0, 512.0]
        .iter()
        .map(|g| g * GB)
        .collect();

    let mut values = Vec::new();
    for &n in &nodes {
        for &s in &sizes {
            values.push(pfs.aggregate_write_bw(n, s) / TB);
        }
    }
    let map = HeatMap::new(
        "Fig. 2c — aggregate write bandwidth (TB/s), nodes × per-node transfer size",
        nodes.iter().map(|n| format!("{n} nodes")).collect(),
        sizes.iter().map(|s| format!("{:.1}GB", s / GB)).collect(),
        values.clone(),
    );
    println!("{}", map.render());

    println!("Numeric matrix (TB/s):");
    print!("{:>10}", "");
    for &s in &sizes {
        print!("{:>9.1}GB", s / GB);
    }
    println!();
    for (i, &n) in nodes.iter().enumerate() {
        print!("{n:>10}");
        for j in 0..sizes.len() {
            print!("{:>11.3}", values[i * sizes.len() + j]);
        }
        println!();
    }
    println!(
        "\nCeiling {:.1} TB/s; single-node peak {:.1} GB/s; contention exponent β = {:.2}.",
        pfs.ceiling() / TB,
        pfs.single_node_write_bw(512.0 * GB) / GB,
        pfs.contention_exponent(),
    );
    println!(
        "Calibration anchors: XGC 1515-node commit {:.0}s, S3D 505-node commit {:.0}s,\n\
         CHIMERA 2272-node commit {:.0}s (these drive Table II's M1 FT ratios).",
        pfs.write_secs(1515, 98.8 * GB),
        pfs.write_secs(505, 40.0 * GB),
        pfs.write_secs(2272, 284.5 * GB),
    );
}
