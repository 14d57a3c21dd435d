//! Command-line contract of the `reproduce` binary: sections are opt-in
//! filters, so an argument that names no section or option must fail loudly
//! instead of selecting nothing and exiting 0.

use std::process::Command;

#[test]
fn unknown_arguments_exit_2_naming_the_argument() {
    for flag in ["--bench-sim", "--json", "--fig88"] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg(flag)
            .output()
            .expect("run reproduce");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(flag), "{flag}: stderr was {stderr:?}");
        // Rejected before any section (or the cost-model banner) runs.
        assert!(
            out.stdout.is_empty(),
            "{flag}: stdout was {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
