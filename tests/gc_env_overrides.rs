//! The environment the product reads, in a test binary of its own:
//! mutating process-global environment variables must not race sibling
//! tests (cargo runs test *binaries* sequentially, but tests within one
//! binary in parallel — which is why every test here serialises on
//! [`env_lock`]).
//!
//! Only the daemon edge reads `HTD_*` variables: the strict `HTD_SERVE_*`
//! overrides, parsed once when `htd serve` / `htd submit` starts.  An unset
//! variable falls back to the default, but a set-but-malformed one fails
//! loudly — `parse().ok()` would let a typo (`HTD_SERVE_MAX_JOBS=eight`)
//! silently run a differently-configured daemon than the operator asked
//! for.  The detection library reads no environment at all: the variables
//! its defaults used to parse are inert, junk values included.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};

use golden_free_htd::detect::{PropertyScheduler, SessionBuilder};
use golden_free_htd::ipc::CheckerOptions;
use golden_free_htd::rtl::netlist;
use golden_free_htd::serve::{self, client, ServeOptions, Server};
use golden_free_htd::trusthub::registry::Benchmark;

/// Serialises the tests in this binary: they all mutate the process
/// environment.  Taken once at the top of every test (the helpers below do
/// not lock, so they can nest).
fn env_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `body` with `var` set to `value`, restoring the previous state.
/// Caller holds [`env_lock`].
fn with_env<R>(var: &str, value: &str, body: impl FnOnce() -> R) -> R {
    // htd-lint: allow(strict-env): saves the caller's value to restore it afterwards; nothing is parsed
    let previous = std::env::var(var).ok();
    std::env::set_var(var, value);
    let result = catch_unwind(AssertUnwindSafe(body));
    match previous {
        Some(old) => std::env::set_var(var, old),
        None => std::env::remove_var(var),
    }
    match result {
        Ok(result) => result,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Runs `body` with `var` removed from the environment, restoring the
/// previous state — "unset" defaults are asserted under an explicit unset,
/// never the ambient environment.  Caller holds [`env_lock`].
fn without_env<R>(var: &str, body: impl FnOnce() -> R) -> R {
    // htd-lint: allow(strict-env): saves the caller's value to restore it afterwards; nothing is parsed
    let previous = std::env::var(var).ok();
    std::env::remove_var(var);
    let result = catch_unwind(AssertUnwindSafe(body));
    if let Some(old) = previous {
        std::env::set_var(var, old);
    }
    match result {
        Ok(result) => result,
        Err(panic) => std::panic::resume_unwind(panic),
    }
}

/// Runs `body` with junk in every variable the library defaults used to
/// parse.  Caller holds [`env_lock`].
fn with_deleted_library_variables<R>(body: impl FnOnce() -> R) -> R {
    with_env("HTD_JOBS", "two", || {
        with_env("HTD_LEVEL_PIPELINE", "maybe", || {
            with_env("HTD_GC_DEAD_PCT", "5%", || {
                with_env("HTD_GC_MIN_CLAUSES", "many", body)
            })
        })
    })
}

/// The library defaults are constants: junk in the variables they used to
/// parse neither changes them nor stops a default session from detecting
/// the Trojan.
#[test]
fn library_defaults_ignore_the_deleted_variables() {
    let _guard = env_lock();
    with_deleted_library_variables(|| {
        let scheduler = PropertyScheduler::default();
        assert_eq!(scheduler.jobs(), NonZeroUsize::MIN);
        assert!(scheduler.pipelines_levels());
        assert!(PropertyScheduler::new(NonZeroUsize::new(2).unwrap()).pipelines_levels());
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

/// A daemon whose process environment holds the deleted variables serves
/// the report `htd detect --normalize` prints.
#[test]
fn daemon_ignores_the_deleted_library_variables() {
    let _guard = env_lock();
    let design = Benchmark::Rs232T2400.build().expect("benchmark builds");
    let netlist_text = netlist::dump(&design);
    let report = SessionBuilder::new(design)
        .jobs(NonZeroUsize::new(2).unwrap())
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
    let served = with_deleted_library_variables(|| {
        let server = Server::start(options).expect("loopback server starts");
        let submission = client::submit(&server.addr().to_string(), &netlist_text, &mut |_| {});
        server.stop();
        submission
    })
    .expect("the job completes");
    assert_eq!(served.report_text, want);
}

/// `HTD_SERVE_ADDR` must be a socket address; whitespace is trimmed, and a
/// malformed value fails loudly instead of binding a surprise interface.
#[test]
fn serve_addr_env_override_is_strict() {
    let _guard = env_lock();
    assert_eq!(
        with_env(serve::ADDR_ENV_VAR, "0.0.0.0:9000", serve::try_default_addr),
        Ok("0.0.0.0:9000".to_owned())
    );
    assert_eq!(
        with_env(serve::ADDR_ENV_VAR, " [::1]:7171 ", serve::try_default_addr),
        Ok("[::1]:7171".to_owned())
    );
    for bad in ["localhost:7171", "7171", "127.0.0.1", "", "not an addr"] {
        let error = with_env(serve::ADDR_ENV_VAR, bad, serve::try_default_addr)
            .expect_err("malformed HTD_SERVE_ADDR is an error");
        assert!(
            error.contains("HTD_SERVE_ADDR") && error.contains("socket address"),
            "HTD_SERVE_ADDR={bad}: {error}"
        );
    }
    assert_eq!(
        without_env(serve::ADDR_ENV_VAR, serve::try_default_addr),
        Ok(serve::DEFAULT_ADDR.to_owned()),
        "unset default"
    );
}

/// `HTD_SERVE_MAX_JOBS` must be a positive integer (the admission bound can
/// never be zero — the daemon would reject everything).
#[test]
fn serve_max_jobs_env_override_is_strict() {
    let _guard = env_lock();
    let max_jobs = |value| with_env(serve::MAX_JOBS_ENV_VAR, value, serve::try_default_max_jobs);
    assert_eq!(max_jobs("3").map(NonZeroUsize::get), Ok(3));
    assert_eq!(max_jobs(" 12 ").map(NonZeroUsize::get), Ok(12));
    for bad in ["0", "eight", "-1", "", "4x"] {
        let error = max_jobs(bad).expect_err("malformed HTD_SERVE_MAX_JOBS is an error");
        assert!(
            error.contains("HTD_SERVE_MAX_JOBS") && error.contains("positive integer"),
            "HTD_SERVE_MAX_JOBS={bad}: {error}"
        );
    }
    assert_eq!(
        without_env(serve::MAX_JOBS_ENV_VAR, serve::try_default_max_jobs).map(NonZeroUsize::get),
        Ok(serve::DEFAULT_MAX_JOBS),
        "unset default"
    );
}

/// `HTD_SERVE_CACHE_BYTES` must be a non-negative integer; `0` is a valid
/// setting (it disables the snapshot cache), garbage is not.
#[test]
fn serve_cache_bytes_env_override_is_strict() {
    let _guard = env_lock();
    let cache_bytes = |value| {
        with_env(
            serve::CACHE_BYTES_ENV_VAR,
            value,
            serve::try_default_cache_bytes,
        )
    };
    assert_eq!(
        cache_bytes("0"),
        Ok(0),
        "zero disables caching, it is not an error"
    );
    assert_eq!(cache_bytes(" 1048576 "), Ok(1_048_576));
    for bad in ["-1", "1MiB", "lots", "", "0.5"] {
        let error = cache_bytes(bad).expect_err("malformed HTD_SERVE_CACHE_BYTES is an error");
        assert!(
            error.contains("HTD_SERVE_CACHE_BYTES") && error.contains("byte count"),
            "HTD_SERVE_CACHE_BYTES={bad}: {error}"
        );
    }
    assert_eq!(
        without_env(serve::CACHE_BYTES_ENV_VAR, serve::try_default_cache_bytes),
        Ok(serve::DEFAULT_CACHE_BYTES),
        "unset default"
    );
}

/// `HTD_SERVE_BUDGET_DEADLINE_MS` / `HTD_SERVE_BUDGET_CONFLICTS` set the
/// server-wide per-job budget cap.  Both must be positive integers — a zero
/// deadline would exhaust every job on arrival, so "no limit" is spelled by
/// unsetting the variable, not by `0`.
#[test]
fn serve_budget_env_overrides_are_strict() {
    let _guard = env_lock();
    let budget = with_env(serve::BUDGET_DEADLINE_ENV_VAR, "250", || {
        with_env(serve::BUDGET_CONFLICTS_ENV_VAR, " 1000 ", || {
            serve::try_default_budget().expect("well-formed budget")
        })
    });
    assert_eq!(budget.deadline, Some(std::time::Duration::from_millis(250)));
    assert_eq!(budget.conflict_ceiling, Some(1000));
    for bad in ["0", "-1", "soon", "", "1.5"] {
        let error = with_env(
            serve::BUDGET_DEADLINE_ENV_VAR,
            bad,
            serve::try_default_budget,
        )
        .expect_err("malformed deadline is an error");
        assert!(
            error.contains("HTD_SERVE_BUDGET_DEADLINE_MS"),
            "HTD_SERVE_BUDGET_DEADLINE_MS={bad}: {error}"
        );
        let error = with_env(
            serve::BUDGET_CONFLICTS_ENV_VAR,
            bad,
            serve::try_default_budget,
        )
        .expect_err("malformed conflict ceiling is an error");
        assert!(
            error.contains("HTD_SERVE_BUDGET_CONFLICTS"),
            "HTD_SERVE_BUDGET_CONFLICTS={bad}: {error}"
        );
    }
    let unset = without_env(serve::BUDGET_DEADLINE_ENV_VAR, || {
        without_env(serve::BUDGET_CONFLICTS_ENV_VAR, serve::try_default_budget)
    })
    .expect("unset budget is the default");
    assert!(unset.is_unlimited(), "budgets are strictly opt-in");
}

/// `HTD_SERVE_DRAIN_DEADLINE_MS` / `HTD_SERVE_HEADER_TIMEOUT_MS` are
/// positive millisecond counts with built-in defaults.
#[test]
fn serve_drain_and_header_timeout_env_overrides_are_strict() {
    let _guard = env_lock();
    assert_eq!(
        with_env(
            serve::DRAIN_DEADLINE_ENV_VAR,
            "1500",
            serve::try_default_drain_deadline
        ),
        Ok(std::time::Duration::from_millis(1500))
    );
    assert_eq!(
        with_env(
            serve::HEADER_TIMEOUT_ENV_VAR,
            " 750 ",
            serve::try_default_header_timeout
        ),
        Ok(std::time::Duration::from_millis(750))
    );
    for bad in ["0", "forever", ""] {
        let error = with_env(
            serve::DRAIN_DEADLINE_ENV_VAR,
            bad,
            serve::try_default_drain_deadline,
        )
        .expect_err("malformed drain deadline is an error");
        assert!(
            error.contains("HTD_SERVE_DRAIN_DEADLINE_MS"),
            "HTD_SERVE_DRAIN_DEADLINE_MS={bad}: {error}"
        );
        let error = with_env(
            serve::HEADER_TIMEOUT_ENV_VAR,
            bad,
            serve::try_default_header_timeout,
        )
        .expect_err("malformed header timeout is an error");
        assert!(
            error.contains("HTD_SERVE_HEADER_TIMEOUT_MS"),
            "HTD_SERVE_HEADER_TIMEOUT_MS={bad}: {error}"
        );
    }
    assert_eq!(
        without_env(
            serve::DRAIN_DEADLINE_ENV_VAR,
            serve::try_default_drain_deadline
        ),
        Ok(serve::DEFAULT_DRAIN_DEADLINE)
    );
    assert_eq!(
        without_env(
            serve::HEADER_TIMEOUT_ENV_VAR,
            serve::try_default_header_timeout
        ),
        Ok(serve::DEFAULT_HEADER_TIMEOUT)
    );
}

/// `HTD_SERVE_FAULT` acceptance is compiled in only for test builds of the
/// `htd-serve` crate itself and builds with its `fault-injection` feature.
/// This test binary links the *regular* library build, so any set value —
/// even a well-formed one — must be refused loudly, never silently ignored:
/// an operator who sets a fault knob a build cannot honour is told so.
#[test]
fn serve_fault_env_is_refused_by_builds_without_the_hooks() {
    let _guard = env_lock();
    for value in ["runner-panic", "solve-stall:100", "coffee-spill"] {
        let error = with_env(serve::FAULT_ENV_VAR, value, serve::fault::try_default_fault)
            .expect_err("a non-fault build refuses every HTD_SERVE_FAULT value");
        assert!(
            error.contains("HTD_SERVE_FAULT") && error.contains("fault-injection"),
            "HTD_SERVE_FAULT={value}: {error}"
        );
        let error = with_env(serve::FAULT_ENV_VAR, value, serve::ServeOptions::from_env)
            .expect_err("from_env propagates the refusal");
        assert!(error.contains("HTD_SERVE_FAULT"), "{error}");
    }
    assert_eq!(
        without_env(serve::FAULT_ENV_VAR, serve::fault::try_default_fault),
        Ok(None),
        "unset means no fault, in every build"
    );

    // The *parser* is always compiled (tests construct faults directly), and
    // it is strict in the usual way.
    use golden_free_htd::serve::FaultSpec;
    assert_eq!(
        "solve-stall:250".parse(),
        Ok(FaultSpec::SolveStall(std::time::Duration::from_millis(250)))
    );
    assert!("solve-stall:soon".parse::<FaultSpec>().is_err());
    assert!("coffee-spill".parse::<FaultSpec>().is_err());
}
