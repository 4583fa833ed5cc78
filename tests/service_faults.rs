//! The fault-injection suite: every degradation path of the serve tier must
//! settle the job record and leave the pool serviceable.
//!
//! The faults come from two directions.  *Injected* ones use the
//! [`FaultSpec`] hooks in the daemon (runner panics, forced stream
//! disconnects, artificial solve stalls, slow frame writes) — the suite
//! arms them through `ServeOptions::fault`, which only tests set.  *Budget*
//! ones exercise the [`SolveBudget`] interrupt seam of all three SAT
//! backends: the builtin solver through a real loopback daemon, the DIMACS
//! process backend against a deliberately stalling child solver, and the
//! IPASIR shim through its terminate callback.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::time::Duration;

use golden_free_htd::detect::{
    BackendChoice, DetectError, DetectorConfig, SessionBuilder, SolveBudget,
};
use golden_free_htd::rtl::{netlist, Design};
use golden_free_htd::serve::client::{self, SubmitOptions};
use golden_free_htd::serve::server::{ServeOptions, Server};
use golden_free_htd::serve::{ClientError, FaultSpec, Json};

/// The 8-bit pass-through accelerator with a sequential Trojan (a
/// magic-value trigger FSM flipping the result's low bit) — small enough to
/// solve in milliseconds, rich enough to exercise real SAT queries.
fn infected_accelerator() -> String {
    let mut d = Design::new("acc_infected");
    let data_in = d.add_input("data_in", 8).unwrap();
    let result = d.add_register("result", 8, 0).unwrap();
    let trigger = d.add_register("trigger", 1, 0).unwrap();
    let seen = d.eq_const(d.signal(data_in), 0xAB).unwrap();
    let armed = d.or(d.signal(trigger), seen).unwrap();
    d.set_register_next(trigger, armed).unwrap();
    let flip = d.zero_ext(d.signal(trigger), 8).unwrap();
    let next = d.xor(d.signal(data_in), flip).unwrap();
    d.set_register_next(result, next).unwrap();
    d.add_output("data_out", d.signal(result)).unwrap();
    netlist::dump(&d.validated().unwrap())
}

/// The accelerator with a rare trigger: the payload flips the result's low
/// bit only while a 32-bit running sum of the inputs holds a magic value.
/// No simulation lane reaches that state, so the init property's
/// counterexample needs a SAT query, the first sub-property of the flow.
fn rare_trigger_accelerator() -> String {
    let mut d = Design::new("acc_rare_trigger");
    let data_in = d.add_input("data_in", 8).unwrap();
    let result = d.add_register("result", 8, 0).unwrap();
    let sum = d.add_register("sum", 32, 0).unwrap();
    let widened = d.zero_ext(d.signal(data_in), 32).unwrap();
    let sum_next = d.add(d.signal(sum), widened).unwrap();
    d.set_register_next(sum, sum_next).unwrap();
    let magic = d.eq_const(d.signal(sum), 0xDEAD_BEEF).unwrap();
    let flip = d.zero_ext(magic, 8).unwrap();
    let next = d.xor(d.signal(data_in), flip).unwrap();
    d.set_register_next(result, next).unwrap();
    d.add_output("data_out", d.signal(result)).unwrap();
    netlist::dump(&d.validated().unwrap())
}

fn test_options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        max_jobs: NonZeroUsize::new(4).unwrap(),
        workers: NonZeroUsize::new(2).unwrap(),
        ..ServeOptions::default()
    }
}

/// Runs the flow on `netlist_text` session-level with an explicit backend
/// and budget: exactly the session the daemon builds for a job, minus the
/// HTTP framing, which is how the non-builtin backends are exercised.
fn run_budgeted(
    netlist_text: &str,
    backend: BackendChoice,
    budget: SolveBudget,
) -> Result<golden_free_htd::detect::DetectionReport, DetectError> {
    let design = netlist::parse(netlist_text).expect("netlist parses");
    let config = DetectorConfig {
        budget,
        ..DetectorConfig::default()
    };
    let mut session = SessionBuilder::new(design)
        .config(config)
        .backend(backend)
        .build()?;
    session.run()
}

/// Locates the IPASIR shim cdylib built by cargo (the root package has a
/// dev-dependency on `ipasir-shim`, so any `cargo test` run has built it);
/// `HTD_IPASIR_LIB` overrides for release-build CI legs.
fn shim_library() -> PathBuf {
    // htd-lint: allow(strict-env): an opaque filesystem path consumed verbatim; there is nothing to parse strictly
    if let Ok(path) = std::env::var("HTD_IPASIR_LIB") {
        return PathBuf::from(path);
    }
    let exe = std::env::current_exe().expect("test binary has a path");
    let deps = exe.parent().expect("deps dir");
    let profile = deps.parent().expect("profile dir");
    for dir in [profile, deps] {
        let candidate = dir.join("libipasir_htd.so");
        if candidate.exists() {
            return candidate;
        }
    }
    panic!(
        "libipasir_htd.so not found next to {} — build it with `cargo build -p ipasir-shim` \
         (or point HTD_IPASIR_LIB at it)",
        exe.display()
    );
}

/// Polls `/stats` until no job is queued or running (or panics after ~5s).
fn wait_idle(addr: &str) {
    for _ in 0..100 {
        let served = client::stats(addr).expect("stats endpoint answers");
        let active = served.get("queue_depth").and_then(Json::as_u64).unwrap()
            + served.get("running").and_then(Json::as_u64).unwrap();
        if active == 0 {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("the daemon never went idle");
}

// ---------------------------------------------------------------------------
// Budget exhaustion on every backend's interrupt path.
// ---------------------------------------------------------------------------

#[test]
fn builtin_backend_budget_exhaustion_settles_through_the_daemon() {
    // The operator cap (not the request) carries the deadline here: a
    // generous server-side ceiling stays in place while one request asks for
    // an impossible zero-millisecond deadline and is clamped to it.
    let server = Server::start(ServeOptions {
        budget: SolveBudget {
            deadline: Some(Duration::from_secs(600)),
            conflict_ceiling: None,
        },
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();
    let infected = infected_accelerator();

    let options = SubmitOptions {
        deadline_ms: Some(0),
        ..SubmitOptions::default()
    };
    let mut frames = Vec::new();
    match client::submit_with_options(&addr, &infected, &options, &mut |line| {
        frames.push(line.to_owned());
    }) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "budget_exhausted");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected budget_exhausted, got {other:?}"),
    }
    assert!(
        frames
            .iter()
            .any(|f| f.contains("\"event\":\"budget_exhausted\"")),
        "frames: {frames:?}"
    );

    // The runner is free again: an unbudgeted job (under the server's lavish
    // ceiling) completes on the same pool.
    let ok = client::submit(&addr, &infected, &mut |_| {}).expect("the pool serves the next job");
    assert!(
        ok.report_text.contains("TROJAN SUSPECTED"),
        "{}",
        ok.report_text
    );

    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(
        served.get("budget_exhausted").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(1));
    server.stop();
}

#[test]
#[cfg(unix)]
fn dimacs_backend_kills_a_stalled_child_at_the_deadline() {
    // A "solver" that sleeps far past the deadline: the process backend's
    // poll loop must kill it and answer Interrupted, which the session maps
    // to BudgetExhausted.  The shell reads the script rather than the test
    // executing it (a sibling thread's fork may still hold it open for
    // writing, and exec would fail with ETXTBSY), and `exec` hands the
    // child's pid to `sleep`, so the deadline's kill reaches the sleeper.
    // The script first leaves a marker, the proof that the flow's query
    // spawned it.
    let script = std::env::temp_dir().join("htd_faults_sleeping_solver.sh");
    let marker = std::env::temp_dir().join("htd_faults_sleeping_solver.spawned");
    std::fs::remove_file(&marker).ok();
    std::fs::write(
        &script,
        format!("touch '{}'\nexec sleep 30\n", marker.display()),
    )
    .unwrap();

    let started = std::time::Instant::now();
    let err = run_budgeted(
        &rare_trigger_accelerator(),
        BackendChoice::DimacsProcess("/bin/sh".into(), vec![script.display().to_string()]),
        SolveBudget {
            deadline: Some(Duration::from_millis(150)),
            conflict_ceiling: None,
        },
    )
    .expect_err("the deadline must trip");
    match err {
        DetectError::BudgetExhausted { reason, .. } => assert_eq!(reason, "deadline"),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the child was killed at the deadline, not waited out ({:?})",
        started.elapsed()
    );
    assert!(marker.is_file(), "the stalled solver was never spawned");
    std::fs::remove_file(script).ok();
    std::fs::remove_file(marker).ok();
}

#[test]
fn ipasir_backend_honours_the_deadline_through_the_terminate_seam() {
    let shim = shim_library();
    let err = run_budgeted(
        &infected_accelerator(),
        BackendChoice::ipasir(shim.to_str().unwrap()),
        SolveBudget {
            deadline: Some(Duration::ZERO),
            conflict_ceiling: None,
        },
    )
    .expect_err("a zero deadline must trip at the first query");
    match err {
        DetectError::BudgetExhausted { reason, conflicts } => {
            assert_eq!(reason, "deadline");
            assert_eq!(conflicts, 0, "nothing was solved under a zero deadline");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

#[test]
fn a_conflict_ceiling_trips_with_the_conflicts_reason() {
    use golden_free_htd::trusthub::registry::Benchmark;
    // AES-T2800's deep fanout query needs real search (simulation does not
    // refute it); a ceiling of zero conflicts trips on the first conflict
    // and reports how much was charged.
    let benchmark = Benchmark::AesT2800;
    let design = benchmark.build().expect("bundled benchmark builds");
    let config = DetectorConfig {
        benign_state: benchmark.benign_state(&design),
        budget: SolveBudget {
            deadline: None,
            conflict_ceiling: Some(0),
        },
        ..DetectorConfig::default()
    };
    let err = SessionBuilder::new(design)
        .config(config)
        .build()
        .expect("session builds")
        .run()
        .expect_err("the ceiling must trip");
    match err {
        DetectError::BudgetExhausted { reason, conflicts } => {
            assert_eq!(reason, "conflicts");
            assert!(conflicts > 0, "the tripping conflict was charged");
        }
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Injected faults: panics, disconnects, stalls, slow clients.
// ---------------------------------------------------------------------------

#[test]
fn a_runner_panic_fails_that_job_and_the_pool_survives() {
    let server = Server::start(ServeOptions {
        fault: Some(FaultSpec::RunnerPanic),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();
    let infected = infected_accelerator();

    // The first job hits the armed panic and fails with a structured
    // `internal` frame — not a hung socket, not a dead worker.
    match client::submit(&addr, &infected, &mut |_| {}) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "internal");
            assert!(message.contains("panicked"), "{message}");
        }
        other => panic!("expected an internal error, got {other:?}"),
    }

    // The fault is one-shot: the same pool then serves a job to completion.
    let ok = client::submit(&addr, &infected, &mut |_| {}).expect("the pool survived the panic");
    assert!(
        ok.report_text.contains("TROJAN SUSPECTED"),
        "{}",
        ok.report_text
    );

    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(served.get("failed").and_then(Json::as_u64), Some(1));
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(1));
    server.stop();
}

#[test]
fn a_mid_stream_disconnect_settles_the_job_and_frees_the_queue() {
    let server = Server::start(ServeOptions {
        // Force-close the client's socket right after the first streamed
        // event frame.
        fault: Some(FaultSpec::StreamDisconnect(1)),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();

    // The submission loses its stream mid-flight; any client-side error is
    // acceptable, a wedge is not.
    let err = client::submit(&addr, &infected_accelerator(), &mut |_| {});
    assert!(err.is_err(), "the severed stream cannot yield a report");

    // The orphaned run settles (cancelled once its client was cut)
    // and the daemon keeps serving.
    wait_idle(&addr);
    let ok = client::submit(&addr, &infected_accelerator(), &mut |_| {})
        .expect("the daemon serves after a forced disconnect");
    assert!(
        ok.report_text.contains("TROJAN SUSPECTED"),
        "{}",
        ok.report_text
    );
    server.stop();
}

#[test]
fn slow_frame_writes_delay_but_never_corrupt_a_job() {
    let server = Server::start(ServeOptions {
        fault: Some(FaultSpec::SlowWrites(Duration::from_millis(20))),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();

    let ok = client::submit(&addr, &infected_accelerator(), &mut |_| {})
        .expect("throttled frames still complete");
    assert!(
        ok.report_text.contains("TROJAN SUSPECTED"),
        "{}",
        ok.report_text
    );
    server.stop();
}

#[test]
fn a_connect_and_say_nothing_client_gets_a_structured_408() {
    let server = Server::start(ServeOptions {
        header_timeout: Duration::from_millis(200),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();

    // A slow-loris client: connect, send nothing, wait.  The daemon must
    // answer a structured timeout and close, not pin the thread forever.
    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 408"), "{answer}");
    assert!(answer.contains("\"code\":\"timeout\""), "{answer}");

    // A half-written request line times out the same way.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"POST /jo").unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 408"), "{answer}");

    // And an honest client right behind them is served immediately.
    let ok = client::submit(&addr, &infected_accelerator(), &mut |_| {})
        .expect("the accept side survived the loris");
    assert!(
        ok.report_text.contains("TROJAN SUSPECTED"),
        "{}",
        ok.report_text
    );
    server.stop();
}
