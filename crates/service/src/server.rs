//! The wire layer: a line-oriented protocol over a Unix socket, plus
//! the in-process `respond` entry the CLI's `once` mode shares.
//!
//! Request: one JSON document (see [`crate::request`]) terminated by a
//! newline or EOF. Response, line by line:
//!
//! ```text
//! CELL_JSON {...}      one per input cell, input order
//! SERVICE_JSON {...}   grid meta_json + cache/journal accounting
//! DIGEST <hex32>       the campaign digest (see `grid_digest`)
//! OK                   terminator (or: ERR <message> alone)
//! ```
//!
//! `CELL_JSON` carries both human-readable means and `hours_bits`, the
//! exact f64 bit patterns, so clients can verify bit-identical replay
//! without parsing floats.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::Arc;

use crate::json::escape;
use crate::request::parse_request;
use crate::service::Service;
use crate::grid_digest;

/// Serves one request text, in-process.
pub fn respond(req_text: &str, service: &Service) -> String {
    match respond_inner(req_text, service) {
        Ok(body) => body,
        Err(e) => format!("ERR {}\n", e.replace('\n', " ")),
    }
}

fn respond_inner(req_text: &str, service: &Service) -> Result<String, String> {
    let req = parse_request(req_text)?;
    let outcome = service.execute(&req)?;
    let grid = &outcome.grid;
    let mut out = String::new();
    for (i, campaign) in grid.cells.iter().enumerate() {
        let pruned = grid.analytic_verdicts[i].is_some();
        let models: Vec<String> = campaign
            .models
            .iter()
            .map(|m| format!("\"{}\"", m.name()))
            .collect();
        let mut hours = Vec::new();
        let mut ratios = Vec::new();
        let mut bits = Vec::new();
        for agg in &campaign.aggregates {
            hours.push(format!("{:.6}", agg.total_hours.mean()));
            ratios.push(format!("{:.6}", agg.ft_ratio_pooled()));
            bits.push(format!("\"{:016x}\"", agg.total_hours.mean().to_bits()));
        }
        out.push_str(&format!(
            "CELL_JSON {{\"label\":\"{}\",\"pruned\":{pruned},\"models\":[{}],\
             \"runs\":{},\"ci_rel\":{:.6},\"total_hours\":[{}],\"ft_ratio\":[{}],\
             \"hours_bits\":[{}]}}\n",
            escape(&grid.labels[i]),
            models.join(","),
            grid.cell_runs[i],
            grid.cell_ci_rel[i],
            hours.join(","),
            ratios.join(","),
            bits.join(","),
        ));
    }
    out.push_str(&format!("SERVICE_JSON {}\n", outcome.meta_json(&req.name)));
    out.push_str(&format!("DIGEST {}\n", grid_digest(grid).hex()));
    out.push_str("OK\n");
    Ok(out)
}

/// Accepts connections on `socket_path` until `max_requests` (if any)
/// have been served. Each connection carries one request line; the
/// response is streamed back and the connection closed. Connections
/// are handled on their own threads so identical concurrent requests
/// actually exercise single-flight coalescing. Each accept first joins
/// the connection threads that have finished: an exited thread that is
/// never joined keeps its stack mapped, and a daemon without a request
/// cap would pile those up until thread spawning fails.
pub fn serve_unix(
    socket_path: &Path,
    service: Arc<Service>,
    max_requests: Option<usize>,
) -> Result<(), String> {
    let _ = std::fs::remove_file(socket_path);
    let listener = UnixListener::bind(socket_path)
        .map_err(|e| format!("bind {}: {e}", socket_path.display()))?;
    let mut served = 0usize;
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        let stream = match stream {
            Ok(s) => s,
            Err(e) => return Err(format!("accept: {e}")),
        };
        let mut i = 0;
        while i < workers.len() {
            if workers[i].is_finished() {
                let _ = workers.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        let service = Arc::clone(&service);
        workers.push(std::thread::spawn(move || handle(stream, &service)));
        served += 1;
        if let Some(cap) = max_requests {
            if served >= cap {
                break;
            }
        }
    }
    for w in workers {
        let _ = w.join();
    }
    let _ = std::fs::remove_file(socket_path);
    Ok(())
}

fn handle(stream: UnixStream, service: &Service) {
    let mut reader = BufReader::new(&stream);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() || line.trim().is_empty() {
        let _ = (&stream).write_all(b"ERR empty request\n");
        return;
    }
    let body = respond(line.trim(), service);
    let _ = (&stream).write_all(body.as_bytes());
    let _ = (&stream).flush();
}

/// Client side: submits one request line to a daemon and returns the
/// raw response text.
pub fn submit_unix(socket_path: &Path, req_text: &str) -> Result<String, String> {
    let mut stream = UnixStream::connect(socket_path)
        .map_err(|e| format!("connect {}: {e}", socket_path.display()))?;
    let line = req_text.replace('\n', " ");
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .map_err(|e| format!("send: {e}"))?;
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("shutdown: {e}"))?;
    let mut body = String::new();
    stream
        .read_to_string(&mut body)
        .map_err(|e| format!("recv: {e}"))?;
    Ok(body)
}
