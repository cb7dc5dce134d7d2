//! Live scrape of the service's metrics through the wire: real TCP
//! clients drive a request mix, then a `metrics` op pulls the
//! Prometheus-style exposition and the test asserts the series the
//! dashboards would alert on — exact counts where the per-service
//! registry guarantees isolation, presence for the process-global
//! store series.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pchls_core::Engine;
use pchls_fulib::paper_library;
use pchls_serve::{
    serve_tcp_with, Service, ServiceConfig, ShutdownHandle, SubmitRequest, SubmitResponse,
};

struct ServerGuard {
    addr: std::net::SocketAddr,
    shutdown: Arc<ShutdownHandle>,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        self.shutdown.request_stop();
        if let Some(thread) = self.thread.take() {
            let result = thread.join().expect("serve loop must not panic");
            assert!(result.is_ok(), "serve loop must exit cleanly: {result:?}");
        }
    }
}

fn spawn_server() -> ServerGuard {
    let service = Arc::new(Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(ShutdownHandle::new());
    let thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve_tcp_with(&service, &listener, &shutdown))
    };
    ServerGuard {
        addr,
        shutdown,
        thread: Some(thread),
    }
}

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    stream: &mut TcpStream,
    request: &SubmitRequest,
) -> SubmitResponse {
    let mut line = serde_json::to_string(request).unwrap();
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    serde_json::from_str(&reply).unwrap_or_else(|e| panic!("bad reply `{reply}`: {e}"))
}

/// The exposition line for a metric, if present.
fn sample<'t>(text: &'t str, series: &str) -> Option<&'t str> {
    text.lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
}

#[test]
fn metrics_op_scrapes_counters_lanes_and_tiers() {
    let server = spawn_server();
    let mut stream = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Three requests against two distinct graphs: the repeat of `hal`
    // at the same point is a result-tier hit served on the hit lane.
    for (id, graph, latency, power) in [
        (1, "hal", 17, 25.0),
        (2, "cosine", 15, 40.0),
        (3, "hal", 17, 25.0),
    ] {
        let reply = roundtrip(
            &mut reader,
            &mut stream,
            &SubmitRequest::synth(id, graph, latency, power),
        );
        assert!(reply.ok, "request {id} failed: {:?}", reply.error);
    }

    let scrape = SubmitRequest {
        op: "metrics".to_owned(),
        ..SubmitRequest::stats(9)
    };
    let reply = roundtrip(&mut reader, &mut stream, &scrape);
    assert!(reply.ok);
    assert_eq!(reply.id, 9);
    let text = reply.metrics.expect("metrics reply carries the text");

    // Request disposition: this service's registry is private to the
    // test, so the counts are exact.
    assert_eq!(
        sample(&text, "pchls_requests_total"),
        Some("pchls_requests_total 3")
    );
    assert_eq!(
        sample(&text, "pchls_requests_completed_total"),
        Some("pchls_requests_completed_total 3")
    );
    assert_eq!(
        sample(&text, "pchls_requests_shed_total"),
        Some("pchls_requests_shed_total 0")
    );
    assert_eq!(
        sample(&text, "pchls_requests_rate_limited_total"),
        Some("pchls_requests_rate_limited_total 0")
    );

    // Cache tiers, mirrored from the service snapshot: two distinct
    // graphs compiled, the repeated constraint point answered from the
    // result tier.
    assert_eq!(
        sample(&text, "pchls_compile_cache_misses_total"),
        Some("pchls_compile_cache_misses_total 2")
    );
    assert_eq!(
        sample(&text, "pchls_result_tier_hits_total"),
        Some("pchls_result_tier_hits_total 1")
    );

    // Latency histograms render as summaries, per lane: the repeat ran
    // on the hit lane, the two cold points on the synth lane.
    assert!(
        text.contains("# TYPE pchls_lane_latency_seconds summary"),
        "{text}"
    );
    for series in [
        r#"pchls_lane_latency_seconds{lane="hit",quantile="0.99"}"#,
        r#"pchls_lane_latency_seconds{lane="synth",quantile="0.99"}"#,
        r#"pchls_request_latency_seconds{quantile="0.999"}"#,
    ] {
        assert!(
            sample(&text, series).is_some(),
            "missing `{series}` in:\n{text}"
        );
    }
    assert_eq!(
        sample(&text, r#"pchls_lane_latency_seconds_count{lane="hit"}"#),
        Some(r#"pchls_lane_latency_seconds_count{lane="hit"} 1"#)
    );
    assert_eq!(
        sample(&text, r#"pchls_lane_latency_seconds_count{lane="synth"}"#),
        Some(r#"pchls_lane_latency_seconds_count{lane="synth"} 2"#)
    );

    // The process-global store series ride the same scrape. Other
    // tests in this process may also touch the global registry, so
    // presence only.
    for series in [
        "pchls_store_tier_hits_total",
        "pchls_store_tier_misses_total",
        "pchls_store_appends_total",
    ] {
        assert!(
            sample(&text, series).is_some(),
            "missing `{series}` in:\n{text}"
        );
    }

    // Every family is typed exactly once.
    let mut types: Vec<&str> = text.lines().filter(|l| l.starts_with("# TYPE ")).collect();
    let before = types.len();
    types.dedup();
    assert_eq!(types.len(), before, "duplicate # TYPE lines:\n{text}");
}

/// `metrics` is exempt from the per-connection rate limit, exactly
/// like `stats`: a starved bucket still answers a scrape.
#[test]
fn metrics_op_is_rate_limit_exempt() {
    let service = Arc::new(Service::start(
        Engine::new(paper_library()),
        ServiceConfig {
            workers: 1,
            rate_per_sec: 0.001,
            burst: 1.0,
            ..ServiceConfig::default()
        },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let shutdown = Arc::new(ShutdownHandle::new());
    let thread = {
        let shutdown = Arc::clone(&shutdown);
        std::thread::spawn(move || serve_tcp_with(&service, &listener, &shutdown))
    };
    let server = ServerGuard {
        addr,
        shutdown,
        thread: Some(thread),
    };

    let mut stream = TcpStream::connect(server.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // Burn the bucket's single token, then confirm synth is limited
    // while metrics keeps answering.
    let first = roundtrip(
        &mut reader,
        &mut stream,
        &SubmitRequest::synth(1, "hal", 17, 25.0),
    );
    assert!(first.ok);
    let limited = roundtrip(
        &mut reader,
        &mut stream,
        &SubmitRequest::synth(2, "hal", 10, 40.0),
    );
    assert_eq!(limited.error.as_deref(), Some("rate_limited"));
    for id in 3..6 {
        let scrape = SubmitRequest {
            op: "metrics".to_owned(),
            ..SubmitRequest::stats(id)
        };
        let reply = roundtrip(&mut reader, &mut stream, &scrape);
        assert!(reply.ok, "scrape {id} was limited: {:?}", reply.error);
        let text = reply.metrics.expect("metrics text");
        assert_eq!(
            sample(&text, "pchls_requests_rate_limited_total"),
            Some("pchls_requests_rate_limited_total 1")
        );
    }
}
