//! Stamps the build profile into the binary for the machine fingerprint.

fn main() {
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let opt = std::env::var("OPT_LEVEL").unwrap_or_else(|_| "?".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}/opt-level={opt}");
    println!("cargo:rerun-if-changed=build.rs");
}
