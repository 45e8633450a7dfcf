//! Records the compiler version for the host fingerprint, so a run never
//! has to start `rustc` itself.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SVCBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
