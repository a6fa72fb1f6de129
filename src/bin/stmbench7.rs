//! The STMBench7 command-line interface; see [`stmbench7::cli`].

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    stmbench7::cli::main(&argv)
}
