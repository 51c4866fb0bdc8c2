//! Records the compiler version and build profile so every result line
//! can state what produced it.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    println!("cargo:rustc-env=SIMBENCH_RUSTC={version}");
    println!("cargo:rustc-env=SIMBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
