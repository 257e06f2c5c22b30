//! `repro` — see the crate docs of `ditto_repro` for targets and exit codes.

use std::io::{self, ErrorKind};
use std::process::ExitCode;

fn main() -> ExitCode {
    ditto_obs::env::log_active();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let invocation = match ditto_repro::parse(&args) {
        Ok(invocation) => invocation,
        Err(msg) => {
            eprintln!("repro: {msg}\n{}", ditto_repro::USAGE);
            return ExitCode::from(1);
        }
    };
    // One locked handle for the whole run; a write error is returned, not
    // panicked on as `println!` would.
    match ditto_repro::run(&invocation, &mut io::stdout().lock()) {
        Ok(claims) => {
            let failed: Vec<_> = claims.iter().filter(|c| !c.holds).collect();
            for claim in &failed {
                eprintln!("repro: {}", claim.failure());
            }
            ExitCode::from(if failed.is_empty() { 0 } else { 2 })
        }
        // The reader went away (`repro fig2 | head`): nothing left to say.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("repro: cannot write results: {e}");
            ExitCode::from(1)
        }
    }
}
