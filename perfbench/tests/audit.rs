//! The benchmark passes the workspace auditor under the project policy,
//! audited as if it lived under `crates/`: path-only dependencies, no
//! threads outside parx, and clock reads only in the clock helper.

use std::fs;
use std::path::Path;

use auditor::{audit_sources, AuditConfig};

#[test]
fn benchmark_sources_are_audit_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    for dir in ["src", "tests"] {
        for entry in fs::read_dir(root.join(dir)).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.extension().is_some_and(|e| e == "rs") {
                let name = path.file_name().expect("file name").to_string_lossy();
                let src = fs::read_to_string(&path).expect("readable source");
                sources.push((format!("crates/perfbench/{dir}/{name}"), src));
            }
        }
    }
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("manifest");
    sources.push(("crates/perfbench/Cargo.toml".to_owned(), manifest));
    sources.sort();

    let repo = root.parent().expect("benchmark sits inside the repository");
    let report = audit_sources(&sources, &AuditConfig::approxit(repo));
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert!(
        report
            .suppressed
            .iter()
            .all(|v| v.rule == "wall-clock" && v.file == "crates/perfbench/src/clock.rs"),
        "only the clock helper may read the wall clock: {:#?}",
        report.suppressed
    );
}
