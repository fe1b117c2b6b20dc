//! `tpbench`: renders the paper's tables and figures in one process
//! (see the crate docs for the command line).

use std::process::ExitCode;
use tpbench::{configure, Options};

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("tpbench: {msg}");
            return ExitCode::from(2);
        }
    };
    let runner = configure(opts.jobs, opts.audit);
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("tpbench: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for (i, (name, render)) in opts.artefacts.iter().enumerate() {
        eprintln!("== {name} ({}) ==", opts.scale);
        let text = render(opts.scale);
        match &opts.out {
            Some(dir) => {
                let path = dir.join(format!("{name}.txt"));
                if let Err(e) = std::fs::write(&path, text) {
                    eprintln!("tpbench: cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("tpbench: wrote {}", path.display());
            }
            None if i == 0 => print!("{text}"),
            None => print!("\n{text}"),
        }
    }
    let simulated = runner.cached_jobs();
    eprintln!("tpbench: {simulated} distinct job(s) simulated in this process");
    ExitCode::SUCCESS
}
