//! Live scrape of the service's metrics through the wire: real TCP
//! clients drive a request mix, then a `metrics` op pulls the
//! Prometheus-style exposition and the test asserts the series the
//! dashboards would alert on — exact counts, since every serve series
//! lives in the per-service registry. A second test checks that
//! `Service::stats` and the scrape report the same cache and store
//! counts.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

    // The store series are per-service too, and ride the scrape even
    // without a configured store.
    for series in [
        "pchls_store_tier_hits_total",
        "pchls_store_tier_misses_total",
        "pchls_store_appends_total",
    ] {
        assert_eq!(
            sample(&text, series),
            Some(format!("{series} 0").as_str()),
            "in:\n{text}"
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

/// The numeric value of `series` in `text`.
fn value(text: &str, series: &str) -> f64 {
    let line = sample(text, series).unwrap_or_else(|| panic!("missing `{series}` in:\n{text}"));
    line[series.len() + 1..].parse().unwrap()
}

/// Asserts that every cache and store field of `Service::stats` equals
/// its series in `Service::metrics_text` (hit rates and mean eviction
/// ages recomputed from the series), and returns the snapshot.
fn assert_stats_match_metrics(service: &Service) -> pchls_serve::ServiceStats {
    let stats = service.stats();
    let text = service.metrics_text();
    let v = |series: &str| value(&text, series);
    for (series, field) in [
        ("pchls_compile_cache_entries", stats.cache_entries as u64),
        ("pchls_compile_cache_hits_total", stats.cache_hits),
        ("pchls_compile_cache_misses_total", stats.cache_misses),
        ("pchls_compile_cache_coalesced_total", stats.cache_coalesced),
        ("pchls_compile_cache_evictions_total", stats.cache_evictions),
        ("pchls_result_tier_entries", stats.result_entries as u64),
        ("pchls_result_tier_hits_total", stats.result_hits),
        ("pchls_result_tier_misses_total", stats.result_misses),
        ("pchls_result_tier_evictions_total", stats.result_evictions),
        ("pchls_store_tier_hits_total", stats.store_hits),
        ("pchls_store_tier_misses_total", stats.store_misses),
        ("pchls_store_appends_total", stats.store_appends),
    ] {
        assert_eq!(v(series), field as f64, "`{series}` in:\n{text}");
    }
    let ratio = |part: f64, whole: f64| if whole == 0.0 { 0.0 } else { part / whole };
    let (hits, misses) = (
        v("pchls_compile_cache_hits_total"),
        v("pchls_compile_cache_misses_total"),
    );
    let lookups = hits + misses + v("pchls_compile_cache_coalesced_total");
    assert_eq!(stats.cache_hit_rate, ratio(hits, lookups));
    assert_eq!(
        stats.cache_mean_eviction_age,
        ratio(
            v("pchls_compile_cache_eviction_age_ticks_total"),
            v("pchls_compile_cache_evictions_total")
        )
    );
    let (hits, misses) = (
        v("pchls_result_tier_hits_total"),
        v("pchls_result_tier_misses_total"),
    );
    assert_eq!(stats.result_hit_rate, ratio(hits, hits + misses));
    assert_eq!(
        stats.result_mean_eviction_age,
        ratio(
            v("pchls_result_tier_eviction_age_ticks_total"),
            v("pchls_result_tier_evictions_total")
        )
    );
    stats
}

#[test]
fn stats_and_metrics_agree_through_every_cache_path() {
    let dir = std::env::temp_dir().join(format!("pchls-scrape-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = || {
        Service::start(
            Engine::new(paper_library()),
            ServiceConfig {
                workers: 1,
                shards: 1,
                cache_cap: 1,
                result_cap: 1,
                store_dir: Some(dir.clone()),
                ..ServiceConfig::default()
            },
        )
    };
    let call = |service: &Service, id: u64, graph: &str, latency: u32, power: f64| {
        let reply = service.call(SubmitRequest::synth(id, graph, latency, power));
        assert!(reply.ok, "request {id}: {:?}", reply.error);
    };

    let service = start();
    call(&service, 1, "hal", 17, 25.0); // compile miss
    call(&service, 2, "hal", 10, 40.0); // compile hit, evicts result 1
    call(&service, 3, "hal", 10, 40.0); // result-tier hit
    call(&service, 4, "cosine", 15, 40.0); // evicts hal and result 2
                                           // Appends land on the write-behind thread; wait for all three.
    let waited = Instant::now();
    while service.stats().store_appends < 3 {
        assert!(
            waited.elapsed() < Duration::from_secs(20),
            "appends stalled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = assert_stats_match_metrics(&service);
    assert_eq!(
        [stats.cache_hits, stats.cache_misses, stats.cache_evictions],
        [1, 2, 1]
    );
    assert_eq!(
        [
            stats.result_hits,
            stats.result_misses,
            stats.result_evictions
        ],
        [1, 3, 2]
    );
    assert_eq!(
        [stats.store_hits, stats.store_misses, stats.store_appends],
        [0, 3, 3]
    );
    drop(service);

    // Restarted: the store answers, memory promotes and evicts, and
    // nothing compiles.
    let service = start();
    call(&service, 5, "hal", 17, 25.0); // store hit
    call(&service, 6, "hal", 17, 25.0); // result-tier hit
    call(&service, 7, "cosine", 15, 40.0); // store hit, evicts result 5
    let stats = assert_stats_match_metrics(&service);
    assert_eq!([stats.cache_hits, stats.cache_misses], [0, 0]);
    assert_eq!(
        [
            stats.result_hits,
            stats.result_misses,
            stats.result_evictions
        ],
        [1, 2, 1]
    );
    assert_eq!(
        [stats.store_hits, stats.store_misses, stats.store_appends],
        [2, 0, 0]
    );
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}
