//! Table 1 / Examples 1–2: the X and Y matrices of the paper's worked
//! example (Figure 1), plus the entropy checks of Example 2.

use obf_bench::experiments::{figure1, table1_rows};
use obf_bench::table::render;
use obf_bench::HarnessConfig;
use obf_core::ObfuscationCheck;
use obf_graph::Parallelism;

fn main() {
    // The worked example takes no configuration, but the harness flags
    // and environment are checked as in every other binary.
    HarnessConfig::init();
    let (x, y) = table1_rows();
    let header = ["", "deg=0", "deg=1", "deg=2", "deg=3"];
    println!("{}", render("Table 1: X_v(w)", &header, &x));
    println!("{}", render("Table 1: Y_w(v)", &header, &y));

    let (g, ug) = figure1();
    let check = ObfuscationCheck::run(&g, &ug, 3, &Parallelism::sequential());
    println!("Example 2 entropies:");
    for omega in [3usize, 1, 2] {
        let h = check
            .entropy_by_degree
            .iter()
            .find_map(|&(d, h)| (d == omega).then_some(h))
            .expect("a degree of the original graph");
        println!("  H(Y_deg={omega}) = {h:.3} bits");
    }
    println!(
        "\n(k=3) obfuscation: {}/{} vertices fail -> ({}, {})-obfuscation",
        check.failed_vertices,
        g.num_vertices(),
        3,
        check.eps_achieved
    );

    let mut rows = x;
    rows.extend(y);
    obf_bench::write_tsv(
        "table1.tsv",
        &["vertex", "deg0", "deg1", "deg2", "deg3"],
        &rows,
    );
}
