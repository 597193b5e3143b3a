//! CI's gate: `gate <committed BENCH_*.json> <fresh BENCH_*.json>` checks
//! a published report against its committed baseline under the contract
//! its `"figure"` field names (see `bench::gate`). Exits 0 when the
//! contract holds, 1 on a violation, and 2 on unreadable or malformed
//! input or a figure without a contract.

use bench::gate::{gate, GateError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [committed, fresh] = &args[..] else {
        eprintln!("usage: gate <committed BENCH_*.json> <fresh BENCH_*.json>");
        std::process::exit(2);
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("gate: {path}: {e}");
            std::process::exit(2);
        })
    };
    match gate(&read(committed), &read(fresh)) {
        Ok(contract) => println!(
            "gate ok: {fresh} holds the {} contract against {committed}",
            contract.figure
        ),
        Err(GateError::Input(msg)) => {
            eprintln!("gate: {committed} vs {fresh}: {msg}");
            std::process::exit(2);
        }
        Err(GateError::Violations(violations)) => {
            eprintln!("gate: {fresh} vs {committed}:");
            for v in &violations {
                eprintln!("  {v}");
            }
            std::process::exit(1);
        }
    }
}
