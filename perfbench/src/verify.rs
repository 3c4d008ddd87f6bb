//! The verify phase: replies checked against an in-process oracle.
//!
//! A seeded sequence of requests goes to the workload's entry point on one
//! connection, and the same rendered bytes go to an in-process
//! [`predictd::Service`] built with the daemon's defaults. Every reply must
//! equal the oracle's, except the `cache_hit` flag: each process warms its
//! own caches (and the gateway ANDs the flag over `decide_batch` chunks).
//! The gateway workloads are held to the same monolithic oracle.

use std::net::SocketAddr;

use predictd::{Client, Service, ServiceConfig};
use proto::{binproto, Request, Response};

use crate::gen::Codec;
use crate::workload::encode;

/// Requests per pipelined window.
const WINDOW: usize = 32;

/// What the verify phase found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Requests sent.
    pub sent: u64,
    /// Replies that differed from the oracle (or did not decode).
    pub mismatches: u64,
    /// The first mismatch, described.
    pub first: Option<String>,
}

/// `resp` with the per-process cache flag cleared.
fn normalize(mut resp: Response) -> Response {
    match &mut resp {
        Response::Prediction(p) => p.cache_hit = false,
        Response::Decisions(d) => d.cache_hit = false,
        _ => {}
    }
    resp
}

fn decode(codec: Codec, bytes: &[u8]) -> Result<Response, String> {
    match codec {
        Codec::Binary => binproto::decode_response(bytes).map_err(|e| e.to_string()),
        Codec::Json => {
            let text = std::str::from_utf8(bytes).map_err(|e| e.to_string())?;
            serde_json::from_str(text.trim_end()).map_err(|e| e.to_string())
        }
    }
}

/// Sends `reqs` to `addr` and compares every reply with the oracle's.
/// Transport failures are errors; wrong answers are counted.
pub fn verify(addr: SocketAddr, codec: Codec, reqs: &[Request]) -> Result<Verdict, String> {
    let oracle = Service::with_default_predictor(ServiceConfig::default());
    let mut client = match codec {
        Codec::Binary => Client::connect_binary(addr),
        Codec::Json => Client::connect(addr),
    }
    .map_err(|e| format!("verify connect: {e}"))?;
    let mut verdict = Verdict::default();
    let mut expected = Vec::with_capacity(WINDOW);
    let mut reply_frame = Vec::new();
    let mut reply_line = String::new();
    for window in reqs.chunks(WINDOW) {
        expected.clear();
        for req in window {
            let wire = encode(codec, req);
            let want = match codec {
                Codec::Binary => {
                    let mut out = Vec::new();
                    oracle.handle_frame_into(&wire[4..], &mut out);
                    client.send_frame(&wire).map_err(|e| format!("verify send: {e}"))?;
                    decode(codec, &out[4..])
                }
                Codec::Json => {
                    let line = std::str::from_utf8(&wire).map_err(|e| e.to_string())?.trim_end();
                    client.send_raw(line).map_err(|e| format!("verify send: {e}"))?;
                    let (out, _) = oracle.handle_line(line);
                    decode(codec, out.as_bytes())
                }
            };
            expected.push((req.kind(), want));
        }
        client.flush().map_err(|e| format!("verify send: {e}"))?;
        for (kind, want) in expected.drain(..) {
            let got = match codec {
                Codec::Binary => {
                    client
                        .recv_frame_into(&mut reply_frame)
                        .map_err(|e| format!("verify receive: {e}"))?;
                    decode(codec, &reply_frame)
                }
                Codec::Json => {
                    client
                        .recv_raw_into(&mut reply_line)
                        .map_err(|e| format!("verify receive: {e}"))?;
                    decode(codec, reply_line.as_bytes())
                }
            };
            verdict.sent += 1;
            let same = matches!((&got, &want), (Ok(g), Ok(w)) if normalize(g.clone()) == normalize(w.clone()));
            if !same {
                verdict.mismatches += 1;
                verdict.first.get_or_insert_with(|| {
                    format!("request {} ({kind}): got {got:?}, oracle {want:?}", verdict.sent)
                });
            }
        }
    }
    Ok(verdict)
}
