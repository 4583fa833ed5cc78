//! `htd detect` runs the same flow whatever the process environment holds:
//! the variables the detection library used to parse in its defaults
//! (`HTD_JOBS`, `HTD_LEVEL_PIPELINE`, `HTD_GC_DEAD_PCT`,
//! `HTD_GC_MIN_CLAUSES`) are inert, junk values included.  Only the child
//! processes get the variables; this test process's environment is left
//! alone.

use std::process::{Command, Output};

const DELETED_LIBRARY_VARIABLES: [(&str, &str); 4] = [
    ("HTD_JOBS", "two"),
    ("HTD_LEVEL_PIPELINE", "maybe"),
    ("HTD_GC_DEAD_PCT", "5%"),
    ("HTD_GC_MIN_CLAUSES", "many"),
];

fn detect_rs232_t2400(env: &[(&str, &str)]) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_htd"));
    command.args([
        "detect",
        "trusthub:RS232-T2400",
        "--normalize",
        "--jobs",
        "2",
    ]);
    for (var, _) in DELETED_LIBRARY_VARIABLES {
        command.env_remove(var);
    }
    command.envs(env.iter().copied());
    command.output().expect("htd runs")
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
