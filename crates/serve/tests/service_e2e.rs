//! End-to-end service tests over a loopback daemon: concurrent multi-tenant
//! determinism, resubmission, identical concurrent submissions, cancellation
//! isolation and the error schema.  Every served report must be
//! byte-identical to a solo session's.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;
use std::num::NonZeroUsize;
use std::time::Duration;

use htd_core::{DetectorConfig, SessionBuilder};
use htd_ipc::SessionStats;
use htd_rtl::{netlist, Design};
use htd_serve::client::{self, SubmitOptions};
use htd_serve::json::Json;
use htd_serve::server::{ServeOptions, Server};
use htd_serve::{ClientError, FaultSpec};

/// An 8-bit pass-through accelerator; `infected` adds a sequential Trojan
/// (a magic-value-armed trigger FSM flipping the result's low bit).  The
/// clean one passes `(data_in + result) - result`: equal to `data_in`, but
/// not structurally, so its init property is proved by a SAT query that
/// simulation cannot answer.
fn accelerator(infected: bool) -> String {
    let name = if infected {
        "acc_infected"
    } else {
        "acc_clean"
    };
    let mut d = Design::new(name);
    let data_in = d.add_input("data_in", 8).unwrap();
    let result = d.add_register("result", 8, 0).unwrap();
    let next = if infected {
        let trigger = d.add_register("trigger", 1, 0).unwrap();
        let seen = d.eq_const(d.signal(data_in), 0xAB).unwrap();
        let armed = d.or(d.signal(trigger), seen).unwrap();
        d.set_register_next(trigger, armed).unwrap();
        let flip = d.zero_ext(d.signal(trigger), 8).unwrap();
        d.xor(d.signal(data_in), flip).unwrap()
    } else {
        let sum = d.add(d.signal(data_in), d.signal(result)).unwrap();
        d.sub(sum, d.signal(result)).unwrap()
    };
    d.set_register_next(result, next).unwrap();
    d.add_output("data_out", d.signal(result)).unwrap();
    netlist::dump(&d.validated().unwrap())
}

/// A solo session over this netlist, run to completion: what
/// `htd detect --normalize` prints (the normalized report's `Display`
/// rendering plus the CLI's trailing newline) and the session's counters.
fn solo_run(netlist_text: &str) -> (String, SessionStats) {
    let design = netlist::parse(netlist_text).unwrap();
    let mut session = SessionBuilder::new(design)
        .config(DetectorConfig::default())
        .build()
        .unwrap();
    let report = session.run().unwrap().normalized();
    let mut text = String::new();
    let _ = writeln!(text, "{report}");
    (text, session.session_stats())
}

/// What `htd detect --normalize` prints for this netlist.
fn solo_normalized_report(netlist_text: &str) -> String {
    solo_run(netlist_text).0
}

fn test_options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        max_jobs: NonZeroUsize::new(4).unwrap(),
        workers: NonZeroUsize::new(2).unwrap(),
        ..ServeOptions::default()
    }
}

fn test_server() -> Server {
    Server::start(test_options()).expect("loopback server starts")
}

#[test]
fn concurrent_tenants_and_a_resubmission_match_solo_runs() {
    let clean = accelerator(false);
    let infected = accelerator(true);
    let want_clean = solo_normalized_report(&clean);
    let want_infected = solo_normalized_report(&infected);
    assert_ne!(want_clean, want_infected);
    assert!(
        want_infected.contains("TROJAN SUSPECTED"),
        "{want_infected}"
    );
    assert!(want_clean.contains("SECURE"), "{want_clean}");

    // One worker asked for, two runner threads started.
    let server = Server::start(ServeOptions {
        workers: NonZeroUsize::MIN,
        ..test_options()
    })
    .expect("loopback server starts");
    assert_eq!(server.runner_threads(), 2, "the daemon runs at least two");
    let addr = server.addr().to_string();

    // Two tenants in flight at once, one runner thread each.
    let (got_clean, got_infected) = std::thread::scope(|scope| {
        let clean_job = scope.spawn(|| client::submit(&addr, &clean, &mut |_| {}).unwrap());
        let infected_job = scope.spawn(|| client::submit(&addr, &infected, &mut |_| {}).unwrap());
        (clean_job.join().unwrap(), infected_job.join().unwrap())
    });
    assert_eq!(got_clean.report_text, want_clean);
    assert_eq!(got_infected.report_text, want_infected);

    // Resubmitting the same netlist runs the flow again on a fresh session:
    // a stats frame and a byte-identical report.
    let mut frames = Vec::new();
    let again = client::submit(&addr, &infected, &mut |line| frames.push(line.to_owned()))
        .expect("resubmission succeeds");
    assert_eq!(again.report_text, want_infected);
    let stats = again.stats.expect("a stats frame is streamed");
    let session = stats.get("session").expect("a session object");
    // The Trojan's init property diverges in a simulation lane.
    assert_eq!(
        session.get("refuted_by_simulation").and_then(Json::as_u64),
        Some(1),
        "frames: {frames:?}"
    );
    assert_eq!(stats.get("cache"), None, "no job carries a cache tag");
    assert!(
        frames.iter().any(|f| f.contains("\"event\":\"accepted\"")),
        "frames: {frames:?}"
    );
    // A level frame carries the level and its signals, nothing else.
    let level_frames: Vec<Json> = frames
        .iter()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|frame| frame.get("event").and_then(Json::as_str) == Some("level_started"))
        .collect();
    assert!(!level_frames.is_empty(), "frames: {frames:?}");
    for frame in &level_frames {
        let Json::Obj(fields) = frame else {
            panic!("a frame is an object: {frame:?}");
        };
        let keys: Vec<&str> = fields.iter().map(|(key, _)| key.as_str()).collect();
        assert_eq!(keys, ["event", "job", "level", "signals"]);
    }

    // Served aggregate stats see the three completions; the `cache` object
    // the benchmark reads stays, all zero.
    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(3));
    let cache = served.get("cache").expect("cache object present");
    for key in ["hits", "misses", "bytes"] {
        assert_eq!(cache.get(key).and_then(Json::as_u64), Some(0), "{key}");
    }
    let solver = served.get("solver_totals").expect("solver totals present");
    assert!(solver.get("propagations").and_then(Json::as_u64).unwrap() > 0);
    let session_totals = served
        .get("session_totals")
        .expect("session totals present");
    assert_eq!(
        session_totals
            .get("refuted_by_simulation")
            .and_then(Json::as_u64),
        Some(2),
        "the two infected runs"
    );

    server.stop();
}

#[test]
fn a_dropped_client_never_perturbs_a_live_tenant() {
    let clean = accelerator(false);
    let infected = accelerator(true);
    let want_clean = solo_normalized_report(&clean);

    let server = test_server();
    let addr = server.addr().to_string();

    // Submit the infected design by hand and vanish right after admission:
    // the disconnect watcher flips the job's cancel flag.
    {
        let body = Json::obj([("netlist", Json::str(infected.as_str()))]).to_string();
        let mut raw = TcpStream::connect(&addr).unwrap();
        write!(
            raw,
            "POST /jobs HTTP/1.1\r\nHost: htd\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut reader = BufReader::new(raw.try_clone().unwrap());
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            if line.contains("\"event\":\"accepted\"") {
                break;
            }
            line.clear();
        }
        assert!(line.contains("\"event\":\"accepted\""), "got {line:?}");
        // Dropping both handles closes the socket: the client is gone.
    }

    // A live tenant submitted while the orphaned job winds down still gets
    // its exact solo report.
    let live = client::submit(&addr, &clean, &mut |_| {}).expect("live tenant completes");
    assert_eq!(live.report_text, want_clean);

    // The orphaned job reaches a terminal state (cancelled when the watcher
    // won the race, completed when the tiny flow finished first) and the
    // queue drains either way.
    let mut settled = false;
    for _ in 0..100 {
        let served = client::stats(&addr).unwrap();
        let active = served.get("queue_depth").and_then(Json::as_u64).unwrap()
            + served.get("running").and_then(Json::as_u64).unwrap();
        if active == 0 {
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(settled, "orphaned job never reached a terminal state");

    server.stop();
}

#[test]
fn rejections_use_the_structured_error_schema() {
    let server = test_server();
    let addr = server.addr().to_string();

    // Not JSON at all.
    let err = client::submit(&addr, "", &mut |_| {}); // valid JSON, valid shape, empty netlist
    match err {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "bad_request");
            assert!(message.contains("netlist rejected"), "{message}");
        }
        other => panic!("expected a bad_request rejection, got {other:?}"),
    }

    // A syntactically broken request body, sent by hand.
    {
        let mut raw = TcpStream::connect(&addr).unwrap();
        write!(
            raw,
            "POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot JSON!"
        )
        .unwrap();
        let mut answer = String::new();
        BufReader::new(raw).read_line(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    }

    // Cancelling a job that never existed.
    match client::cancel(&addr, 999) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, "not_found"),
        other => panic!("expected not_found, got {other:?}"),
    }

    // Cancelling a finished job acknowledges without flipping anything.
    let done = client::submit(&addr, &accelerator(false), &mut |_| {}).unwrap();
    let answer = client::cancel(&addr, done.job).unwrap();
    assert_eq!(answer.get("cancelled"), Some(&Json::Bool(false)));
    assert_eq!(
        answer.get("state").and_then(Json::as_str),
        Some("completed")
    );

    server.stop();
}

/// A netlist nested far past the expression depth bound, and a request
/// body whose JSON nests far past the parser's bound, are refused like any
/// other bad request, naming the bound, and the daemon keeps serving: the
/// same connection threads then stream an exact report.
#[test]
fn deeply_nested_requests_are_refused_and_the_daemon_keeps_serving() {
    let server = test_server();
    let addr = server.addr().to_string();
    let depth = 20_000;
    let deep = format!(
        "design deep\ninput a 1\noutput o 1 = {}a{}\n",
        "(not ".repeat(depth),
        ")".repeat(depth)
    );
    match client::submit(&addr, &deep, &mut |_| {}) {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "bad_request");
            assert!(
                message.contains("line 3: expression nested deeper than 1024 levels"),
                "{message}"
            );
        }
        other => panic!("expected a bad_request rejection, got {other:?}"),
    }
    // `client::submit` writes its own JSON, so this body goes by hand.
    let depth = 100_000;
    let body = format!(
        "{{\"netlist\":\"x\",\"pad\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let mut raw = TcpStream::connect(&addr).unwrap();
    write!(
        raw,
        "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut answer = String::new();
    BufReader::new(raw).read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400"), "{answer}");
    assert!(answer.contains("\"code\":\"bad_request\""), "{answer}");
    assert!(answer.contains("nested deeper than 128 levels"), "{answer}");

    let text = accelerator(true);
    let served = client::submit(&addr, &text, &mut |_| {}).expect("the daemon still serves");
    assert_eq!(served.report_text, solo_normalized_report(&text));
    server.stop();
}

/// The `text` of the terminal `report` frame in a raw NDJSON response.
fn report_text(response: &str) -> Option<String> {
    response
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|frame| frame.get("event").and_then(Json::as_str) == Some("report"))
        .and_then(|frame| frame.get("text").and_then(Json::as_str).map(str::to_owned))
}

#[test]
fn expect_100_continue_is_answered_before_the_body_is_sent() {
    let server = test_server();
    let addr = server.addr().to_string();
    let netlist_text = accelerator(true);
    let body = Json::obj([("netlist", Json::str(netlist_text.as_str()))]).to_string();

    let mut raw = TcpStream::connect(&addr).unwrap();
    // A daemon that never answers would leave this read blocked; fail
    // loudly instead of hanging the suite.
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    write!(
        raw,
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nExpect: 100-continue\r\n\r\n",
        body.len()
    )
    .unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut interim = String::new();
    reader.read_line(&mut interim).unwrap();
    assert_eq!(interim, "HTTP/1.1 100 Continue\r\n");
    let mut blank = String::new();
    reader.read_line(&mut blank).unwrap();
    assert_eq!(blank, "\r\n");

    // Only now does the body go out.
    raw.write_all(body.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    let got = report_text(&response).expect("a report frame is streamed");

    let plain = client::submit(&addr, &netlist_text, &mut |_| {}).unwrap();
    assert_eq!(got, plain.report_text);
    assert_eq!(got, solo_normalized_report(&netlist_text));
    server.stop();
}

#[test]
fn transfer_encoded_bodies_get_a_structured_411() {
    let server = test_server();
    let addr = server.addr().to_string();
    let body = Json::obj([("netlist", Json::str(accelerator(false).as_str()))]).to_string();

    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let request = format!(
        "POST /jobs HTTP/1.1\r\nHost: {addr}\r\nTransfer-Encoding: chunked\r\n\r\n\
         {:x}\r\n{body}\r\n0\r\n\r\n",
        body.len()
    );
    raw.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    BufReader::new(raw).read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 411 Length Required\r\n"),
        "{response}"
    );
    let error = Json::parse(response.split("\r\n\r\n").nth(1).unwrap().trim()).unwrap();
    let error = error.get("error").expect("structured error schema");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("length_required")
    );
    assert!(
        error
            .get("message")
            .and_then(Json::as_str)
            .is_some_and(|m| m.contains("Content-Length")),
        "{response}"
    );
    server.stop();
}

#[test]
fn an_exhausted_budget_streams_a_structured_frame_and_frees_the_runner() {
    let server = test_server();
    let addr = server.addr().to_string();
    let infected = accelerator(true);

    // A zero deadline trips at the first solver query: the job settles with
    // a terminal `budget_exhausted` frame instead of a report.
    let options = SubmitOptions {
        deadline_ms: Some(0),
        ..SubmitOptions::default()
    };
    let mut frames = Vec::new();
    let err = client::submit_with_options(&addr, &infected, &options, &mut |line| {
        frames.push(line.to_owned());
    });
    match err {
        Err(ClientError::Server { code, message }) => {
            assert_eq!(code, "budget_exhausted");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected budget_exhausted, got {other:?}"),
    }
    assert!(
        frames
            .iter()
            .any(|f| f.contains("\"event\":\"budget_exhausted\"") && f.contains("\"conflicts\"")),
        "frames: {frames:?}"
    );

    // The runner that hit the budget serves the next job normally.
    let clean = accelerator(false);
    let ok = client::submit(&addr, &clean, &mut |_| {}).expect("pool survives an exhausted job");
    assert_eq!(ok.report_text, solo_normalized_report(&clean));

    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(
        served.get("budget_exhausted").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(1));

    server.stop();
}

/// The frames of a raw NDJSON stream, parsed.
fn parse_frames(lines: &[String]) -> Vec<Json> {
    lines
        .iter()
        .map(|line| Json::parse(line).unwrap())
        .collect()
}

fn event_of(frame: &Json) -> Option<&str> {
    frame.get("event").and_then(Json::as_str)
}

#[test]
fn identical_concurrent_submissions_run_as_two_jobs() {
    let infected = accelerator(true);
    let (want, solo_stats) = solo_run(&infected);

    // Stall every run before its flow starts, so the second submission
    // reliably arrives while the first is still in flight.
    let server = Server::start(ServeOptions {
        fault: Some(FaultSpec::SolveStall(Duration::from_millis(1500))),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();

    let submit = || {
        let mut lines = Vec::new();
        let submission = client::submit(&addr, &infected, &mut |line| lines.push(line.to_owned()))
            .expect("submission succeeds");
        (submission, parse_frames(&lines))
    };
    let (first, second) = std::thread::scope(|scope| {
        let first = scope.spawn(submit);
        // The first job is admitted within the stall window; 300ms is well
        // below the 1500ms stall.
        std::thread::sleep(Duration::from_millis(300));
        let second = scope.spawn(submit);
        (first.join().unwrap(), second.join().unwrap())
    });
    assert_ne!(first.0.job, second.0.job);

    // Each job streams its own frames, level by level, and reports the solo
    // run's text.
    let levels_of = |frames: &[Json]| {
        frames
            .iter()
            .filter(|frame| event_of(frame) == Some("level_started"))
            .count()
    };
    for (submission, frames) in [&first, &second] {
        assert_eq!(submission.report_text, want);
        let accepted = &frames[0];
        assert_eq!(event_of(accepted), Some("accepted"), "{accepted}");
        assert!(accepted.get("queue_depth").is_some(), "{accepted}");
        for frame in frames {
            assert_eq!(
                frame.get("job").and_then(Json::as_u64),
                Some(submission.job),
                "{frame}"
            );
        }
        assert!(levels_of(frames) > 0, "{frames:?}");
        assert_eq!(levels_of(frames), levels_of(&first.1));
    }

    // The flow ran twice: the session totals checked twice what one solo
    // run checks.
    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(2));
    assert_eq!(served.get("coalesced"), None, "{served}");
    assert_eq!(
        served
            .get("session_totals")
            .and_then(|s| s.get("properties_checked"))
            .and_then(Json::as_u64),
        Some(2 * solo_stats.properties_checked),
        "two submissions run the flow twice"
    );

    server.stop();
}

#[test]
fn deleting_a_running_job_from_another_connection_cancels_that_job_only() {
    let infected = accelerator(true);
    let clean = accelerator(false);
    let want_clean = solo_normalized_report(&clean);

    // Hold every run, so the job is still in flight when the DELETE lands.
    let server = Server::start(ServeOptions {
        fault: Some(FaultSpec::SolveStall(Duration::from_millis(1500))),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();

    let (job_tx, job_rx) = std::sync::mpsc::channel();
    let (doomed, tenant) = std::thread::scope(|scope| {
        let doomed = scope.spawn(|| {
            let mut lines = Vec::new();
            let result = client::submit(&addr, &infected, &mut |line| {
                let frame = Json::parse(line).unwrap();
                if event_of(&frame) == Some("accepted") {
                    job_tx
                        .send(frame.get("job").and_then(Json::as_u64))
                        .unwrap();
                }
                lines.push(line.to_owned());
            });
            (result, lines)
        });
        let tenant = scope.spawn(|| client::submit(&addr, &clean, &mut |_| {}).unwrap());

        // The id comes from the doomed job's `accepted` frame; the DELETE
        // goes out on a connection of its own.
        let job = job_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("an accepted frame")
            .expect("the accepted frame names its job");
        let answer = client::cancel(&addr, job).expect("DELETE answers");
        assert_eq!(answer.get("cancelled"), Some(&Json::Bool(true)), "{answer}");
        (doomed.join().unwrap(), tenant.join().unwrap())
    });

    // The submitter gets an error, never a report...
    let (result, lines) = doomed;
    assert!(result.is_err(), "{result:?}");
    assert!(
        !lines
            .iter()
            .any(|line| line.contains("\"event\":\"report\"")),
        "{lines:?}"
    );
    // ...and the concurrent tenant its solo report.
    assert_eq!(tenant.report_text, want_clean);

    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(served.get("cancelled").and_then(Json::as_u64), Some(1));
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(1));

    server.stop();
}

#[test]
fn drain_stops_admission_and_lets_running_jobs_finish() {
    let infected = accelerator(true);
    let want = solo_normalized_report(&infected);

    let server = Server::start(ServeOptions {
        fault: Some(FaultSpec::SolveStall(Duration::from_millis(800))),
        drain_deadline: Duration::from_secs(30),
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();

    std::thread::scope(|scope| {
        let running = scope.spawn(|| client::submit(&addr, &infected, &mut |_| {}).unwrap());
        std::thread::sleep(Duration::from_millis(250));

        // POST /admin/drain acknowledges with the live-job count.
        {
            let body = "{}";
            let mut raw = TcpStream::connect(&addr).unwrap();
            write!(
                raw,
                "POST /admin/drain HTTP/1.1\r\nHost: htd\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .unwrap();
            let mut answer = String::new();
            BufReader::new(raw).read_to_string(&mut answer).unwrap();
            assert!(answer.contains("\"draining\":true"), "{answer}");
        }

        // Admission is closed with the structured `draining` rejection...
        match client::submit(&addr, &accelerator(false), &mut |_| {}) {
            Err(ClientError::Server { code, .. }) => assert_eq!(code, "draining"),
            other => panic!("expected draining rejection, got {other:?}"),
        }
        let served = client::stats(&addr).expect("stats answers while draining");
        assert_eq!(served.get("draining"), Some(&Json::Bool(true)));

        // ...but the in-flight job still completes with its full report.
        assert_eq!(running.join().unwrap().report_text, want);
    });

    // Drain shuts the daemon down once the last job settled: join returns.
    server.join();
}

/// How many `budget_exhausted` frames a raw NDJSON stream carried.
fn exhausted_frames(frames: &[String]) -> usize {
    frames
        .iter()
        .filter(|f| f.contains("\"event\":\"budget_exhausted\""))
        .count()
}

#[test]
fn request_budgets_clamp_to_the_server_cap() {
    use htd_core::SolveBudget;

    // The operator caps every job at a zero wall-clock allowance; requests
    // can only tighten that, never widen it.
    let server = Server::start(ServeOptions {
        budget: SolveBudget {
            deadline: Some(Duration::ZERO),
            conflict_ceiling: None,
        },
        ..test_options()
    })
    .expect("loopback server starts");
    let addr = server.addr().to_string();
    let infected = accelerator(true);

    let expect_exhausted = |options: &SubmitOptions, label: &str| {
        let mut frames = Vec::new();
        match client::submit_with_options(&addr, &infected, options, &mut |line| {
            frames.push(line.to_owned());
        }) {
            Err(ClientError::Server { code, .. }) => {
                assert_eq!(code, "budget_exhausted", "{label}")
            }
            other => panic!("{label}: expected budget_exhausted, got {other:?}"),
        }
        assert_eq!(
            exhausted_frames(&frames),
            1,
            "{label}: exactly one terminal frame, got {frames:?}"
        );
    };

    // Absent request budget: the server cap alone applies.
    expect_exhausted(&SubmitOptions::default(), "absent request budget");
    // A zero request budget is within the cap (it can't get any tighter).
    expect_exhausted(
        &SubmitOptions {
            deadline_ms: Some(0),
            ..SubmitOptions::default()
        },
        "zero request budget",
    );
    // A request far above the cap is clamped down to it, not honoured.
    expect_exhausted(
        &SubmitOptions {
            deadline_ms: Some(3_600_000),
            conflict_ceiling: Some(u64::MAX),
            ..SubmitOptions::default()
        },
        "over-cap request budget",
    );

    let served = client::stats(&addr).expect("stats endpoint answers");
    assert_eq!(
        served.get("budget_exhausted").and_then(Json::as_u64),
        Some(3)
    );
    assert_eq!(served.get("completed").and_then(Json::as_u64), Some(0));
    server.stop();

    // Control: with an unlimited server cap, an absent request budget means
    // no budget at all — the same design completes normally.
    let unlimited = test_server();
    let addr = unlimited.addr().to_string();
    let ok = client::submit(&addr, &infected, &mut |_| {}).expect("uncapped job completes");
    assert_eq!(ok.report_text, solo_normalized_report(&infected));
    unlimited.stop();
}

#[test]
fn an_unusable_backend_is_refused_at_startup() {
    use htd_core::BackendChoice;

    let Err(err) = Server::start(ServeOptions {
        backend: BackendChoice::ipasir("/nonexistent/libhtd-missing.so"),
        ..test_options()
    }) else {
        panic!("a missing library must fail bring-up")
    };
    assert!(err.to_string().contains("libhtd-missing.so"), "{err}");
}
