//! Fig. 2b — single-node aggregate write bandwidth on GPFS.
//!
//! Prints the bandwidth curves over aggregate transfer size for task
//! counts 1–42, reproducing the experiment that established 8 MPI tasks
//! as the optimal writer count.

use pckpt_analysis::Table;
use pckpt_ioperf::{NodeIoModel, GB, MB};

fn main() {
    pckpt_bench::knobs();
    let model = NodeIoModel::summit();
    let tasks = [1u32, 2, 4, 8, 16, 28, 42];
    let sizes = [
        64.0 * MB,
        256.0 * MB,
        1.0 * GB,
        4.0 * GB,
        16.0 * GB,
        64.0 * GB,
        256.0 * GB,
    ];

    let mut headers: Vec<String> = vec!["transfer".into()];
    headers.extend(tasks.iter().map(|t| format!("{t} tasks")));
    let mut table = Table::new(headers)
        .with_title("Fig. 2b — single-node aggregate write bandwidth (GB/s) by task count");
    for &size in &sizes {
        let mut row = vec![human_size(size)];
        for &t in &tasks {
            row.push(format!("{:.2}", model.bandwidth(t, size) / GB));
        }
        table.row(row);
    }
    println!("{table}");

    let peak = model.optimal_bandwidth(256.0 * GB) / GB;
    println!(
        "Peak at {} tasks: {:.2} GB/s for large transfers (paper: 13-13.5 GB/s at 8 tasks).",
        model.optimal_tasks(),
        peak
    );
    println!("The C/R models therefore perform checkpoint I/O with 8 writer tasks per node.");
}

fn human_size(bytes: f64) -> String {
    if bytes >= GB {
        format!("{:.0} GB", bytes / GB)
    } else {
        format!("{:.0} MB", bytes / MB)
    }
}
