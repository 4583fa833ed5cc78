//! The product reads no `HTD_*` variable: the four the detection library's
//! defaults used to parse and the eight `HTD_SERVE_*` knobs the daemon used
//! to read are inert, junk values included.  The tests set them in the
//! process environment, so they live in a test binary of their own:
//! mutating process-global environment variables must not race sibling
//! tests (cargo runs test *binaries* sequentially, but tests within one
//! binary in parallel — which is why every test here serialises on
//! [`env_lock`]).

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};

use golden_free_htd::detect::SessionBuilder;
use golden_free_htd::ipc::CheckerOptions;
use golden_free_htd::rtl::netlist;
use golden_free_htd::serve::{client, ServeOptions, Server};
use golden_free_htd::trusthub::registry::Benchmark;

/// Every variable the product used to read, each with a junk value.
const DELETED_VARIABLES: [(&str, &str); 12] = [
    ("HTD_JOBS", "two"),
    ("HTD_LEVEL_PIPELINE", "maybe"),
    ("HTD_GC_DEAD_PCT", "5%"),
    ("HTD_GC_MIN_CLAUSES", "many"),
    ("HTD_SERVE_ADDR", "not an addr"),
    ("HTD_SERVE_MAX_JOBS", "eight"),
    ("HTD_SERVE_CACHE_BYTES", "lots"),
    ("HTD_SERVE_BUDGET_DEADLINE_MS", "soon"),
    ("HTD_SERVE_BUDGET_CONFLICTS", "-1"),
    ("HTD_SERVE_DRAIN_DEADLINE_MS", "forever"),
    ("HTD_SERVE_HEADER_TIMEOUT_MS", "0"),
    ("HTD_SERVE_FAULT", "runner-panic"),
];

/// Serialises the tests in this binary: they all mutate the process
/// environment.  Taken once at the top of every test.
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `body` with junk in every [`DELETED_VARIABLES`] entry, restoring
/// the previous state.  Caller holds [`env_lock`].
fn with_deleted_variables<R>(body: impl FnOnce() -> R) -> R {
    let previous: Vec<Option<String>> = DELETED_VARIABLES
        .iter()
        // htd-lint: allow(strict-env): saves the caller's value to restore it afterwards; nothing is parsed
        .map(|&(var, _)| std::env::var(var).ok())
        .collect();
    for (var, junk) in DELETED_VARIABLES {
        std::env::set_var(var, junk);
    }
    let result = catch_unwind(AssertUnwindSafe(body));
    for ((var, _), old) in DELETED_VARIABLES.iter().zip(previous) {
        match old {
            Some(old) => std::env::set_var(var, old),
            None => std::env::remove_var(var),
        }
    }
    match result {
        Ok(result) => result,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// The library defaults are constants: junk in the variables they used to
/// parse neither changes them nor stops a default session from detecting
/// the Trojan.
#[test]
fn library_defaults_ignore_the_deleted_variables() {
    let _guard = env_lock();
    with_deleted_variables(|| {
        let options = CheckerOptions::default();
        assert_eq!((options.gc_dead_pct, options.gc_min_clauses), (25, 128));

        let design = Benchmark::Rs232T2400.build().expect("benchmark builds");
        let report = SessionBuilder::new(design)
            .build()
            .expect("a default session builds")
            .run()
            .expect("flow completes");
        assert!(
            report.outcome.detected_by().is_some(),
            "{:?}",
            report.outcome
        );
    });
}

/// A daemon whose process environment holds junk in every deleted variable
/// serves the report `htd detect --normalize` prints.
#[test]
fn daemon_ignores_the_deleted_variables() {
    let _guard = env_lock();
    let design = Benchmark::Rs232T2400.build().expect("benchmark builds");
    let netlist_text = netlist::dump(&design);
    let report = SessionBuilder::new(design)
        .build()
        .expect("session builds")
        .run()
        .expect("flow completes");
    let want = format!("{}\n", report.normalized());

    let options = ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        workers: NonZeroUsize::new(2).unwrap(),
        ..ServeOptions::default()
    };
    let served = with_deleted_variables(|| {
        let server = Server::start(options).expect("loopback server starts");
        let submission = client::submit(&server.addr().to_string(), &netlist_text, &mut |_| {});
        server.stop();
        submission
    })
    .expect("the job completes");
    assert_eq!(served.report_text, want);
}
