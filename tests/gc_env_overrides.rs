//! The strict environment overrides (`HTD_GC_DEAD_PCT` /
//! `HTD_GC_MIN_CLAUSES` / `HTD_JOBS` / `HTD_LEVEL_PIPELINE` /
//! `HTD_SERVE_*`), in a test binary of their own: mutating process-global
//! environment variables must not race sibling tests that read them through
//! `CheckerOptions::default()` or `PropertyScheduler::default_jobs()` (cargo
//! runs test *binaries* sequentially, but tests within one binary in
//! parallel — which is why every test here serialises on [`env_lock`]).
//!
//! The overrides are strict on purpose: an unset variable falls back to the
//! default, but a set-but-malformed one fails loudly.  `parse().ok()` would
//! let a typo (`HTD_JOBS=two`, `HTD_GC_DEAD_PCT=5%`) silently run a
//! differently-scheduled flow than the operator asked for.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, OnceLock};

use golden_free_htd::detect::PropertyScheduler;
use golden_free_htd::ipc::CheckerOptions;
use golden_free_htd::serve;

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
/// previous state — the CI matrix exports `HTD_JOBS`/`HTD_LEVEL_PIPELINE`
/// for whole test runs, so "unset" defaults must be asserted under an
/// explicit unset, not the ambient environment.  Caller holds [`env_lock`].
fn without_env<R>(var: &str, body: impl FnOnce() -> R) -> R {
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

/// Like [`with_env`], but expects `body` to panic and returns the message.
fn panic_message_with_env(var: &str, value: &str, body: impl FnOnce()) -> String {
    with_env(var, value, || {
        let panic = catch_unwind(AssertUnwindSafe(body)).expect_err("expected a panic");
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default()
    })
}

/// The `HTD_GC_DEAD_PCT` / `HTD_GC_MIN_CLAUSES` environment variables
/// override the `CheckerOptions` defaults.
#[test]
fn gc_threshold_env_overrides_are_honoured() {
    let _guard = env_lock();
    let options = with_env(golden_free_htd::ipc::GC_DEAD_PCT_ENV_VAR, "5", || {
        with_env(
            golden_free_htd::ipc::GC_MIN_CLAUSES_ENV_VAR,
            "7",
            CheckerOptions::default,
        )
    });
    assert_eq!(options.gc_dead_pct, 5);
    assert_eq!(options.gc_min_clauses, 7);
    let defaults = CheckerOptions::default();
    assert_eq!(defaults.gc_dead_pct, 25);
    assert_eq!(defaults.gc_min_clauses, 128);
}

/// A malformed GC threshold fails loudly (naming the variable) instead of
/// silently running with the default.
#[test]
fn malformed_gc_thresholds_are_rejected() {
    let _guard = env_lock();
    let message = panic_message_with_env(golden_free_htd::ipc::GC_DEAD_PCT_ENV_VAR, "5%", || {
        let _ = CheckerOptions::default();
    });
    assert!(message.contains("HTD_GC_DEAD_PCT"), "{message}");
    let message =
        panic_message_with_env(golden_free_htd::ipc::GC_MIN_CLAUSES_ENV_VAR, "many", || {
            let _ = CheckerOptions::default();
        });
    assert!(message.contains("HTD_GC_MIN_CLAUSES"), "{message}");
}

/// `HTD_JOBS` must be a positive integer; whitespace is tolerated, zero and
/// garbage are not.
#[test]
fn jobs_env_override_is_strict() {
    let _guard = env_lock();
    assert_eq!(
        with_env("HTD_JOBS", "3", PropertyScheduler::default_jobs).get(),
        3
    );
    assert_eq!(
        with_env("HTD_JOBS", " 2 ", PropertyScheduler::default_jobs).get(),
        2
    );
    for bad in ["0", "two", "-1", "", "4x"] {
        let message = panic_message_with_env("HTD_JOBS", bad, || {
            let _ = PropertyScheduler::default_jobs();
        });
        assert!(
            message.contains("HTD_JOBS") && message.contains("positive integer"),
            "HTD_JOBS={bad}: {message}"
        );
        let error = with_env("HTD_JOBS", bad, PropertyScheduler::try_default_jobs)
            .expect_err("malformed HTD_JOBS is an error");
        assert!(error.contains("HTD_JOBS"), "{error}");
    }
    assert_eq!(
        without_env("HTD_JOBS", PropertyScheduler::default_jobs).get(),
        1,
        "unset default"
    );
}

/// `HTD_LEVEL_PIPELINE` understands the usual boolean spellings — in
/// particular `off` and `false` *disable* pipelining (they used to be
/// treated as enabled, because only the literal `0` was recognised) — and
/// rejects anything else.
#[test]
fn level_pipeline_env_override_is_strict_and_understands_off() {
    let _guard = env_lock();
    for on in ["1", "true", "on", "yes", "TRUE", " On "] {
        assert!(
            with_env(
                "HTD_LEVEL_PIPELINE",
                on,
                PropertyScheduler::default_level_pipelining
            ),
            "HTD_LEVEL_PIPELINE={on} must enable pipelining"
        );
    }
    for off in ["0", "false", "off", "no", "OFF", "False"] {
        assert!(
            !with_env(
                "HTD_LEVEL_PIPELINE",
                off,
                PropertyScheduler::default_level_pipelining
            ),
            "HTD_LEVEL_PIPELINE={off} must disable pipelining"
        );
    }
    for bad in ["2", "banana", "enabled", ""] {
        let message = panic_message_with_env("HTD_LEVEL_PIPELINE", bad, || {
            let _ = PropertyScheduler::default_level_pipelining();
        });
        assert!(
            message.contains("HTD_LEVEL_PIPELINE"),
            "HTD_LEVEL_PIPELINE={bad}: {message}"
        );
        let error = with_env(
            "HTD_LEVEL_PIPELINE",
            bad,
            PropertyScheduler::try_default_level_pipelining,
        )
        .expect_err("malformed HTD_LEVEL_PIPELINE is an error");
        assert!(error.contains("HTD_LEVEL_PIPELINE"), "{error}");
    }
    assert!(
        without_env(
            "HTD_LEVEL_PIPELINE",
            PropertyScheduler::default_level_pipelining
        ),
        "unset default is on"
    );
}

/// `HTD_SERVE_ADDR` must be a socket address; whitespace is trimmed, and a
/// malformed value fails loudly instead of binding a surprise interface.
#[test]
fn serve_addr_env_override_is_strict() {
    let _guard = env_lock();
    assert_eq!(
        with_env(serve::ADDR_ENV_VAR, "0.0.0.0:9000", serve::default_addr),
        "0.0.0.0:9000"
    );
    assert_eq!(
        with_env(serve::ADDR_ENV_VAR, " [::1]:7171 ", serve::default_addr),
        "[::1]:7171"
    );
    for bad in ["localhost:7171", "7171", "127.0.0.1", "", "not an addr"] {
        let message = panic_message_with_env(serve::ADDR_ENV_VAR, bad, || {
            let _ = serve::default_addr();
        });
        assert!(
            message.contains("HTD_SERVE_ADDR") && message.contains("socket address"),
            "HTD_SERVE_ADDR={bad}: {message}"
        );
        let error = with_env(serve::ADDR_ENV_VAR, bad, serve::try_default_addr)
            .expect_err("malformed HTD_SERVE_ADDR is an error");
        assert!(error.contains("HTD_SERVE_ADDR"), "{error}");
    }
    assert_eq!(
        without_env(serve::ADDR_ENV_VAR, serve::default_addr),
        serve::DEFAULT_ADDR,
        "unset default"
    );
}

/// `HTD_SERVE_MAX_JOBS` must be a positive integer (the admission bound can
/// never be zero — the daemon would reject everything).
#[test]
fn serve_max_jobs_env_override_is_strict() {
    let _guard = env_lock();
    assert_eq!(
        with_env(serve::MAX_JOBS_ENV_VAR, "3", serve::default_max_jobs).get(),
        3
    );
    assert_eq!(
        with_env(serve::MAX_JOBS_ENV_VAR, " 12 ", serve::default_max_jobs).get(),
        12
    );
    for bad in ["0", "eight", "-1", "", "4x"] {
        let message = panic_message_with_env(serve::MAX_JOBS_ENV_VAR, bad, || {
            let _ = serve::default_max_jobs();
        });
        assert!(
            message.contains("HTD_SERVE_MAX_JOBS") && message.contains("positive integer"),
            "HTD_SERVE_MAX_JOBS={bad}: {message}"
        );
        let error = with_env(serve::MAX_JOBS_ENV_VAR, bad, serve::try_default_max_jobs)
            .expect_err("malformed HTD_SERVE_MAX_JOBS is an error");
        assert!(error.contains("HTD_SERVE_MAX_JOBS"), "{error}");
    }
    assert_eq!(
        without_env(serve::MAX_JOBS_ENV_VAR, serve::default_max_jobs).get(),
        serve::DEFAULT_MAX_JOBS,
        "unset default"
    );
}

/// `HTD_SERVE_CACHE_BYTES` must be a non-negative integer; `0` is a valid
/// setting (it disables the snapshot cache), garbage is not.
#[test]
fn serve_cache_bytes_env_override_is_strict() {
    let _guard = env_lock();
    assert_eq!(
        with_env(serve::CACHE_BYTES_ENV_VAR, "0", serve::default_cache_bytes),
        0,
        "zero disables caching, it is not an error"
    );
    assert_eq!(
        with_env(
            serve::CACHE_BYTES_ENV_VAR,
            " 1048576 ",
            serve::default_cache_bytes
        ),
        1_048_576
    );
    for bad in ["-1", "1MiB", "lots", "", "0.5"] {
        let message = panic_message_with_env(serve::CACHE_BYTES_ENV_VAR, bad, || {
            let _ = serve::default_cache_bytes();
        });
        assert!(
            message.contains("HTD_SERVE_CACHE_BYTES") && message.contains("byte count"),
            "HTD_SERVE_CACHE_BYTES={bad}: {message}"
        );
        let error = with_env(
            serve::CACHE_BYTES_ENV_VAR,
            bad,
            serve::try_default_cache_bytes,
        )
        .expect_err("malformed HTD_SERVE_CACHE_BYTES is an error");
        assert!(error.contains("HTD_SERVE_CACHE_BYTES"), "{error}");
    }
    assert_eq!(
        without_env(serve::CACHE_BYTES_ENV_VAR, serve::default_cache_bytes),
        serve::DEFAULT_CACHE_BYTES,
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
