//! `tkc` — command line front end for the Triangle K-Core suite.
//!
//! ```text
//! tkc decompose <edges.txt> [--top K]
//! tkc plot      <edges.txt> [--svg out.svg] [--tsv out.tsv] [--width N]
//! tkc cliques   <edges.txt> [--top K]
//! tkc update    <edges.txt> --ops <ops.txt> [--verify]
//! tkc patterns  <old.txt> <new.txt> --template new-form|bridge|new-join [--top K]
//! tkc dataset   <name> [--scale F] [--seed S] [--out file]
//! ```
//!
//! Edge lists are whitespace-separated `u v` pairs with `#` comments (the
//! SNAP format). Ops files contain one operation per line: `+ u v` to
//! insert, `- u v` to delete.

#![forbid(unsafe_code)]
// CLI frontend: argument/report plumbing over already-validated data; the
// strict panic-surface wall (deny) applies to tkc-engine. See DESIGN.md §11.
#![allow(clippy::indexing_slicing, clippy::expect_used)]

use std::process::ExitCode;

mod args;
mod commands;
mod obs_report;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            // Diagnostics go through the leveled logger (TKC_LOG) so they
            // carry the same uptime/level prefix as engine output; the
            // usage text stays raw for readability.
            tkc_obs::error!("{msg}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
