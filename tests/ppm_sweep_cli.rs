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

#[test]
fn a_grid_over_a_broken_scenario_is_refused_before_any_cell_runs() {
    let dir = std::env::temp_dir().join(format!("ppm_sweep_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let scenario = "host a\nuser 1\nat 1s frobnicate a\nrun 1s\n";
    std::fs::write(dir.join("broken.ppm"), scenario).expect("scenario written");
    let grid = "sweep broken\nscenario broken.ppm\nseeds 1..3\n";
    std::fs::write(dir.join("broken.sweep"), grid).expect("grid written");
    let out = Command::new(env!("CARGO_BIN_EXE_ppm-sweep"))
        .arg(dir.join("broken.sweep"))
        .output()
        .expect("ppm-sweep runs");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "a broken scenario's grid exited 0");
    assert!(
        out.stdout.is_empty(),
        "cells ran: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        stderr.contains("line 2: ")
            && stderr.contains("broken.ppm: line 3: unknown action \"frobnicate\""),
        "{stderr}"
    );
}
