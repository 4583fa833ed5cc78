//! `htd` behaves the same whatever the process environment holds: the
//! variables the product used to parse — the library defaults' `HTD_JOBS`,
//! `HTD_LEVEL_PIPELINE`, `HTD_GC_DEAD_PCT` and `HTD_GC_MIN_CLAUSES`, and the
//! daemon's eight `HTD_SERVE_*` knobs — are inert, junk values included.
//! Only the child processes get the variables; this test process's
//! environment is left alone.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};

const DELETED_LIBRARY_VARIABLES: [(&str, &str); 4] = [
    ("HTD_JOBS", "two"),
    ("HTD_LEVEL_PIPELINE", "maybe"),
    ("HTD_GC_DEAD_PCT", "5%"),
    ("HTD_GC_MIN_CLAUSES", "many"),
];

const DELETED_SERVE_VARIABLES: [(&str, &str); 8] = [
    ("HTD_SERVE_ADDR", "not an addr"),
    ("HTD_SERVE_MAX_JOBS", "eight"),
    ("HTD_SERVE_CACHE_BYTES", "lots"),
    ("HTD_SERVE_BUDGET_DEADLINE_MS", "soon"),
    ("HTD_SERVE_BUDGET_CONFLICTS", "-1"),
    ("HTD_SERVE_DRAIN_DEADLINE_MS", "forever"),
    ("HTD_SERVE_HEADER_TIMEOUT_MS", "0"),
    ("HTD_SERVE_FAULT", "runner-panic"),
];

fn htd(args: &[&str], env: &[(&str, &str)]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_htd"));
    command.args(args);
    for (var, _) in DELETED_LIBRARY_VARIABLES
        .iter()
        .chain(&DELETED_SERVE_VARIABLES)
    {
        command.env_remove(var);
    }
    command.envs(env.iter().copied());
    command
}

fn detect_rs232_t2400(env: &[(&str, &str)]) -> Output {
    htd(
        &[
            "detect",
            "trusthub:RS232-T2400",
            "--normalize",
            "--jobs",
            "2",
        ],
        env,
    )
    .output()
    .expect("htd runs")
}

#[test]
fn detect_ignores_the_deleted_library_variables() {
    let clean = detect_rs232_t2400(&[]);
    assert!(clean.status.success(), "{clean:?}");
    let stdout = String::from_utf8_lossy(&clean.stdout);
    assert!(stdout.contains("TROJAN SUSPECTED"), "{stdout}");

    let junk = detect_rs232_t2400(&DELETED_LIBRARY_VARIABLES);
    assert!(
        junk.status.success(),
        "exit {:?}: {}",
        junk.status.code(),
        String::from_utf8_lossy(&junk.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&junk.stdout),
        stdout,
        "junk in the deleted variables changed the report"
    );
}

/// Kills the daemon child however the test ends.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A daemon started with junk in every `HTD_SERVE_*` variable binds the
/// `--addr` it was given, never arms a fault, and serves the report
/// `htd detect --normalize` prints; `htd submit` under the same junk
/// reaches it through its `--addr`.
#[test]
fn serve_and_submit_ignore_the_deleted_serve_variables() {
    let netlist = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("rs232_t2400_{}.netlist", std::process::id()));
    let netlist_arg = netlist.to_str().expect("temp path is UTF-8");
    let export = htd(&["export", "trusthub:RS232-T2400", "-o", netlist_arg], &[])
        .output()
        .expect("htd export runs");
    assert!(export.status.success(), "{export:?}");
    let want = htd(&["detect", netlist_arg, "--normalize"], &[])
        .output()
        .expect("htd detect runs");
    assert!(want.status.success(), "{want:?}");

    let mut daemon = Daemon(
        htd(
            &["serve", "--addr", "127.0.0.1:0", "--jobs", "1"],
            &DELETED_SERVE_VARIABLES,
        )
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("htd serve spawns"),
    );
    // Held open until the daemon is killed, so its stderr never breaks.
    let mut stderr = BufReader::new(daemon.0.stderr.take().expect("stderr is piped"));
    let mut banner = String::new();
    stderr
        .read_line(&mut banner)
        .expect("daemon stderr is readable");
    let addr = banner
        .strip_prefix("htd serve listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| {
            let status = daemon.0.wait().expect("daemon exit status");
            panic!("daemon did not start ({status}): {banner}")
        })
        .to_owned();

    let got = htd(
        &["submit", netlist_arg, "--addr", &addr],
        &DELETED_SERVE_VARIABLES,
    )
    .output()
    .expect("htd submit runs");
    drop(daemon);
    drop(stderr);
    let _ = std::fs::remove_file(&netlist);
    assert!(
        got.status.success(),
        "exit {:?}: {}",
        got.status.code(),
        String::from_utf8_lossy(&got.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&got.stdout),
        String::from_utf8_lossy(&want.stdout),
        "the served report differs from htd detect --normalize"
    );
}
