//! `ppm-sim`'s command line, through the binary: what it refuses is
//! refused with the usage line on stderr and a nonzero exit, before any
//! world is built.

use std::process::Command;

fn ppm_sim(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ppm-sim"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(args)
        .output()
        .expect("ppm-sim runs");
    assert!(
        out.stdout.is_empty(),
        "a refused command line printed a run"
    );
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn refused(args: &[&str], why: &str) {
    let (ok, stderr) = ppm_sim(args);
    assert!(!ok, "{args:?} exited 0");
    assert!(stderr.contains(why), "{args:?}: {stderr}");
    assert!(stderr.contains("usage: ppm-sim"), "{args:?}: {stderr}");
}

#[test]
fn a_misspelled_flag_is_named_not_read_as_the_scenario() {
    let args = [
        "--digest",
        "--fault",
        "scenarios/crash_heal.fault",
        "scenarios/chaos.ppm",
    ];
    refused(&args, "unknown flag \"--fault\"");
}

#[test]
fn a_second_scenario_path_is_refused() {
    refused(
        &["scenarios/chaos.ppm", "scenarios/drill.ppm"],
        "a second scenario path",
    );
}

#[test]
fn procs_without_users_is_refused() {
    refused(&["--hosts", "4", "--procs", "100"], "--procs needs --users");
}
