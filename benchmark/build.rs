//! Records the compiler that builds the benchmark, so every result can
//! name it without spawning `rustc` inside the timed process.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=C3BENCH_RUSTC_VERSION={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
