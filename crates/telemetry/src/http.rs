//! A dependency-free embedded metrics endpoint over
//! [`std::net::TcpListener`] — just enough HTTP/1.1 to serve scrapers
//! and `curl`, matching this repo's build-the-substrate rule (no
//! hyper/axum in the workspace).
//!
//! Every route but `/timeseries.json` and `/healthz` is a projection
//! of the process tree ([`crate::Snapshot`]):
//! - `GET /metrics` — Prometheus text exposition of the live
//!   (mid-epoch) tree via [`crate::export::prometheus`], from a
//!   [`Telemetry::light_snapshot`]: relaxed atomic loads on the
//!   handler's own core, no worker's span mutex;
//! - `GET /fleet.json` — the fleet trace bundle as `presto.fleet.v1`
//!   JSON via [`crate::fleet::fleet_json`] (404 until a traced serve
//!   epoch has begun). It takes a full [`Telemetry::snapshot`], which
//!   locks every worker's span mutex to clone its timeline;
//! - `GET /tenants.json` — the `fleetd` tenant registry as
//!   `presto.tenants.v1` JSON (404 until a daemon has begun);
//! - `GET /timeseries.json` — the sampler ring as
//!   `presto.timeseries.v1` JSON ([`TimeSeriesDocument`]);
//! - `GET /healthz` — `ok` once the server is accepting.

use crate::timeseries::{TimeSeries, TimeSeriesDocument};
use crate::{doc, export, Telemetry};
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A running metrics endpoint. Dropping (or [`MetricsServer::stop`])
/// shuts the listener down and joins the accept thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (e.g. `127.0.0.1:9187`, port `0` for ephemeral) and
    /// serve the given telemetry registry and sampler ring from a
    /// background thread.
    pub fn serve(
        addr: &str,
        telemetry: Arc<Telemetry>,
        series: Arc<TimeSeries>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept so the thread can notice `stop` without
        // needing a wake-up connection.
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("presto-metrics".into())
            .spawn(move || {
                while !stopped.load(Ordering::Acquire) {
                    match listener.accept() {
                        Ok((stream, _)) => handle_connection(stream, &telemetry, &series),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        Err(_) => std::thread::sleep(Duration::from_millis(10)),
                    }
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port `0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn handle_connection(stream: TcpStream, telemetry: &Arc<Telemetry>, series: &Arc<TimeSeries>) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    if reader.read_line(&mut request_line).is_err() {
        return;
    }
    // Drain headers so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header).is_ok() && header.trim_end() != "" {
        header.clear();
    }
    let mut stream = reader.into_inner();
    let mut parts = request_line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => {
            let _ = respond(
                &mut stream,
                400,
                "text/plain; charset=utf-8",
                "bad request\n",
            );
            return;
        }
    };
    if method != "GET" {
        let _ = respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
        return;
    }
    // Ignore any query string.
    let path = path.split('?').next().unwrap_or(path);
    let result = match path {
        "/healthz" => respond(&mut stream, 200, "text/plain; charset=utf-8", "ok\n"),
        "/metrics" => respond(
            &mut stream,
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            &export::prometheus(&telemetry.light_snapshot()),
        ),
        "/fleet.json" => {
            let tree = telemetry.snapshot();
            if tree.fleet.is_some() && tree.epoch.is_some() {
                let body = crate::fleet::fleet_json(&tree);
                respond(&mut stream, 200, "application/json; charset=utf-8", &body)
            } else {
                let body = "no fleet trace recorded\n";
                respond(&mut stream, 404, "text/plain; charset=utf-8", body)
            }
        }
        "/tenants.json" => match telemetry.light_snapshot().tenants {
            Some(tenants) => {
                let body = doc::write(tenants);
                respond(&mut stream, 200, "application/json; charset=utf-8", &body)
            }
            None => {
                let body = "no tenant registry active\n";
                respond(&mut stream, 404, "text/plain; charset=utf-8", body)
            }
        },
        "/timeseries.json" => {
            let body = doc::write(TimeSeriesDocument {
                evicted: series.evicted(),
                points: series.points(),
            });
            respond(&mut stream, 200, "application/json; charset=utf-8", &body)
        }
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    };
    let _ = result;
}

fn respond(stream: &mut TcpStream, status: u16, content_type: &str, body: &str) -> io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    write!(
        stream,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Most response bytes [`get`] will read: 64 MiB, far above any
/// document this crate serves.
const MAX_RESPONSE_BYTES: u64 = 64 << 20;

/// Blocking `GET` against a served path; returns `(status, body)`.
/// Shared by tests and `presto watch --attach`-style tooling so the
/// repo needs no HTTP client dependency either.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut stream = stream;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    // The peer decides how much it sends; we decide how much we keep.
    let mut reader = BufReader::new(stream.take(MAX_RESPONSE_BYTES + 1));
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut line = String::new();
    while reader.read_line(&mut line)? > 0 && line.trim_end() != "" {
        line.clear();
    }
    let mut body = String::new();
    // Connection: close — read to EOF.
    reader.read_to_string(&mut body)?;
    if reader.get_ref().limit() == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("response exceeds {MAX_RESPONSE_BYTES} bytes"),
        ));
    }
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_prometheus;

    fn served() -> (MetricsServer, Arc<Telemetry>, Arc<TimeSeries>) {
        let telemetry = Telemetry::new();
        let series = TimeSeries::new(16);
        let server =
            MetricsServer::serve("127.0.0.1:0", Arc::clone(&telemetry), Arc::clone(&series))
                .expect("bind ephemeral port");
        (server, telemetry, series)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (server, _t, _s) = served();
        let (status, body) = get(server.addr(), "/healthz").expect("healthz");
        assert_eq!((status, body.as_str()), (200, "ok\n"));
        let (status, _) = get(server.addr(), "/nope").expect("404 route");
        assert_eq!(status, 404);
        server.stop();
    }

    #[test]
    fn metrics_serves_live_prometheus_text() {
        let (server, telemetry, _s) = served();
        // No epoch yet: still well-formed exposition (a lone comment).
        let (status, body) = get(server.addr(), "/metrics").expect("pre-epoch metrics");
        assert_eq!(status, 200);
        assert!(parse_prometheus(&body).expect("parses").is_empty());

        // Mid-epoch (not finished!) the endpoint sees live counters.
        let rec = telemetry.begin_epoch(&["step".into()], 1, 0);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, crate::BUILTIN_PHASES, t0);
        rec.samples_done(0, 3);
        let (status, body) = get(server.addr(), "/metrics").expect("mid-epoch metrics");
        assert_eq!(status, 200);
        let series = parse_prometheus(&body).expect("live exposition parses");
        assert_eq!(
            crate::export::series_value(&series, "presto_epoch_samples_total"),
            Ok(3.0)
        );
        server.stop();
    }

    #[test]
    fn fleet_endpoint_serves_the_schema_once_active() {
        let (server, telemetry, _s) = served();
        // No traced serve epoch yet: the route 404s.
        let (status, _) = get(server.addr(), "/fleet.json").expect("inactive fleet");
        assert_eq!(status, 404);

        let rec = telemetry.begin_epoch(&["shard-0000".into()], 1, 0);
        telemetry.fleet().begin(0xF1EE7);
        telemetry
            .fleet()
            .record_handshake("127.0.0.1:9", 0, 2, -1_000, 4_000);
        let t0 = rec.begin().unwrap();
        rec.phase_done(0, crate::BUILTIN_PHASES, t0);
        let (status, body) = get(server.addr(), "/fleet.json").expect("active fleet");
        assert_eq!(status, 200);
        let fleet: crate::fleet::FleetDocument = doc::read(&body).expect("schema-valid document");
        assert_eq!(fleet.trace_id, 0xF1EE7);
        assert!(body.contains("\"trace_id\": \"0x00000000000f1ee7\""));

        // The active fleet also shows up in the Prometheus exposition.
        let (status, metrics) = get(server.addr(), "/metrics").expect("metrics");
        assert_eq!(status, 200);
        assert!(metrics.contains("presto_fleet_workers"), "{metrics}");
        server.stop();
    }

    #[test]
    fn tenants_endpoint_serves_the_schema_once_active() {
        let (server, telemetry, _s) = served();
        // No daemon session yet: the route 404s.
        let (status, _) = get(server.addr(), "/tenants.json").expect("inactive tenants");
        assert_eq!(status, 404);

        telemetry.tenants().begin(4, 32);
        telemetry.tenants().admitted("job-a", 2, 8);
        telemetry.tenants().delivered("job-a", 64, 4, 4_096);
        let (status, body) = get(server.addr(), "/tenants.json").expect("active tenants");
        assert_eq!(status, 200);
        let tenants: crate::TenantsSnapshot = doc::read(&body).expect("schema-valid document");
        assert_eq!(tenants.max_jobs, 4);

        // The registry also shows up in the Prometheus exposition,
        // labeled per tenant with an unlabeled back-compat sum.
        let (status, metrics) = get(server.addr(), "/metrics").expect("metrics");
        assert_eq!(status, 200);
        let series = parse_prometheus(&metrics).expect("parses");
        assert_eq!(
            crate::export::series_value(&series, "presto_serve_batches_total{tenant=\"job-a\"}"),
            Ok(4.0)
        );
        assert_eq!(
            crate::export::series_value(&series, "presto_serve_batches_total"),
            Ok(4.0)
        );
        server.stop();
    }

    #[test]
    fn timeseries_endpoint_round_trips_validator() {
        let (server, _t, series) = served();
        let curr = crate::Telemetry::new()
            .begin_epoch(&["s".into()], 1, 0)
            .light_snapshot();
        series.push(crate::timeseries::point_between(None, &curr, 0, 1_000_000));
        let (status, body) = get(server.addr(), "/timeseries.json").expect("timeseries");
        assert_eq!(status, 200);
        let series: TimeSeriesDocument = doc::read(&body).expect("schema-valid document");
        assert_eq!(series.points.len(), 1);
        server.stop();
    }
}
