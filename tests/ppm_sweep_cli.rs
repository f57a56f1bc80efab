//! `ppm-sweep`'s command line, through the binary: what it refuses is
//! refused with the usage line on stderr and a nonzero exit, before any
//! cell runs.

use std::process::Command;

fn refused(args: &[&str], why: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppm-sweep"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("ppm-sweep runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} exited 0");
    assert!(
        out.stdout.is_empty(),
        "{args:?}: a refused command line ran cells"
    );
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: ppm-sweep"), "{args:?}: {stderr}");
}

#[test]
fn a_misspelled_flag_is_named_not_read_as_the_grid() {
    refused(
        &["--outt", "out.json", "scenarios/smoke.sweep"],
        "unknown flag \"--outt\"",
    );
}

#[test]
fn a_second_grid_path_is_refused() {
    refused(
        &["scenarios/smoke.sweep", "scenarios/chaos_mttr.sweep"],
        "a second grid path",
    );
}
