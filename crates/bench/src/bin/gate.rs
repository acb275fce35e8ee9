//! The committed performance gates: `gate perf`, `gate fleet` or
//! `gate shard`. Every bound, the baseline files and the bless rule
//! are documented on [`xrbench_bench::gate`].
//!
//! ```sh
//! cargo run -p xrbench-bench --release --bin gate --locked -- perf
//! ```

use std::process::ExitCode;

use xrbench_bench::gate;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("perf") => gate::perf::run(),
        Some("fleet") => gate::fleet::run(),
        Some("shard") => gate::shard::run(),
        _ => {
            eprintln!("usage: gate <perf|fleet|shard>");
            ExitCode::from(2)
        }
    }
}
