//! Command-line contract of the `reproduce` binary: sections are opt-in
//! filters, so an argument that names no section or option must fail loudly
//! instead of selecting nothing and exiting 0. Every malformed command line
//! exits 2 before anything is printed.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("run reproduce")
}

/// Asserts a usage error: exit 2, nothing on stdout (not even the cost-model
/// banner), and `needle` on stderr.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = reproduce(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: stderr was {stderr:?}"
    );
    assert!(stderr.contains(needle), "{args:?}: stderr was {stderr:?}");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: stdout was {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn unknown_arguments_exit_2_naming_the_argument() {
    for flag in ["--bench-sim", "--json", "--fig88", "--quick"] {
        assert_usage_error(&[flag], flag);
    }
}

#[test]
fn malformed_command_lines_exit_2_before_any_output() {
    for (args, needle) in [
        // Missing values.
        (&["--cost-model"][..], "--cost-model requires a value"),
        (
            &["--fig8", "--trace-out"][..],
            "--trace-out requires a value",
        ),
        (&["--cost-model="][..], "--cost-model requires a value"),
        // A value that is itself a flag.
        (
            &["--shapes", "--trace-out", "--fig8"][..],
            "--trace-out requires a value",
        ),
        // Repeats: no silent first-occurrence-wins.
        (&["--fig8", "--fig8"][..], "--fig8 is given more than once"),
        (
            &["--cost-model", "analytic", "--cost-model=calibrated"][..],
            "--cost-model is given more than once",
        ),
        // Values that do not parse, and a flag given a value.
        (&["--cost-model", "bogus"][..], "--cost-model"),
        (&["--tune", "--routing", "bogus"][..], "--routing"),
        (&["--tune", "--objective", "p101"][..], "--objective"),
        (&["--tune=yes"][..], "--tune takes no value"),
        // Conflicts.
        (&["--fig8", "--verbose"][..], "--verbose requires --tune"),
        (&["--routing", "zipf:1.2"][..], "--routing requires --tune"),
        (
            &["--fig8", "--objective", "p95"][..],
            "--objective requires --tune",
        ),
        (&["--verbose"][..], "--verbose requires --tune"),
    ] {
        assert_usage_error(args, needle);
    }
}
