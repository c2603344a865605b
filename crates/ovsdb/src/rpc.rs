//! JSON-RPC 1.0-style message framing over byte streams.
//!
//! Messages are newline-delimited JSON objects (one per line), carrying
//! either a request (`method`/`params`/`id`), a response
//! (`result`/`error`/`id`), or a notification (a request whose `id` is
//! `null`). This mirrors the protocol `ovsdb-server` speaks, with NDJSON
//! framing instead of a streaming JSON parser.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::OnceLock;

use serde_json::{json, Value as Json};
use telemetry::Counter;

/// Wire-level counters, registered once in the global registry and
/// shared by every connection in the process.
fn wire_tx_bytes() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        telemetry::global().registry.counter(
            "ovsdb_wire_tx_bytes_total",
            "Bytes written to OVSDB JSON-RPC streams",
        )
    })
}

fn wire_rx_bytes() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        telemetry::global().registry.counter(
            "ovsdb_wire_rx_bytes_total",
            "Bytes read from OVSDB JSON-RPC streams",
        )
    })
}

fn wire_messages() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    C.get_or_init(|| {
        telemetry::global().registry.counter(
            "ovsdb_wire_messages_total",
            "OVSDB JSON-RPC messages written",
        )
    })
}

/// A decoded JSON-RPC message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A method call expecting a response.
    Request {
        /// Request id, echoed in the response.
        id: Json,
        /// Method name.
        method: String,
        /// Parameters.
        params: Json,
    },
    /// A method call with no response expected (`id = null`).
    Notification {
        /// Method name.
        method: String,
        /// Parameters.
        params: Json,
    },
    /// A response to an earlier request.
    Response {
        /// The id of the request this answers.
        id: Json,
        /// Result (`null` on error).
        result: Json,
        /// Error (`null` on success).
        error: Json,
    },
}

impl Message {
    /// Parse one JSON object into a message.
    pub fn from_json(v: Json) -> Result<Message, String> {
        let obj = v.as_object().ok_or("message must be a JSON object")?;
        if let Some(method) = obj.get("method").and_then(Json::as_str) {
            let params = obj.get("params").cloned().unwrap_or(json!([]));
            let id = obj.get("id").cloned().unwrap_or(Json::Null);
            if id.is_null() {
                return Ok(Message::Notification {
                    method: method.to_string(),
                    params,
                });
            }
            return Ok(Message::Request {
                id,
                method: method.to_string(),
                params,
            });
        }
        if obj.contains_key("result") || obj.contains_key("error") {
            return Ok(Message::Response {
                id: obj.get("id").cloned().unwrap_or(Json::Null),
                result: obj.get("result").cloned().unwrap_or(Json::Null),
                error: obj.get("error").cloned().unwrap_or(Json::Null),
            });
        }
        Err("message is neither a request nor a response".to_string())
    }

    /// Encode to a JSON object.
    pub fn to_json(&self) -> Json {
        match self {
            Message::Request { id, method, params } => {
                json!({"method": method, "params": params, "id": id})
            }
            Message::Notification { method, params } => {
                json!({"method": method, "params": params, "id": null})
            }
            Message::Response { id, result, error } => {
                json!({"result": result, "error": error, "id": id})
            }
        }
    }
}

/// Write one message to a stream (NDJSON framing).
pub fn write_message(w: &mut impl Write, msg: &Message) -> std::io::Result<()> {
    let mut line = serde_json::to_vec(&msg.to_json())?;
    line.push(b'\n');
    w.write_all(&line)?;
    wire_tx_bytes().add(line.len() as u64);
    wire_messages().inc();
    w.flush()
}

/// The longest message line a reader accepts, newline included: 32 MiB,
/// 12× the largest legitimate message measured, the initial monitor
/// snapshot of 20 000 snvs ports (2.7 MB). A longer line is refused
/// instead of buffered until the process runs out of memory.
pub const MAX_LINE_BYTES: usize = 32 << 20;

/// A message reader over any byte stream.
pub struct MessageReader<R: Read> {
    inner: BufReader<R>,
    line: String,
}

impl<R: Read> MessageReader<R> {
    /// Wrap a stream.
    pub fn new(r: R) -> Self {
        MessageReader {
            inner: BufReader::new(r),
            line: String::new(),
        }
    }

    /// Read the next message; `Ok(None)` on clean EOF.
    pub fn read(&mut self) -> std::io::Result<Option<Message>> {
        loop {
            self.line.clear();
            let mut bounded = (&mut self.inner).take(MAX_LINE_BYTES as u64);
            let n = bounded.read_line(&mut self.line)?;
            if n == 0 {
                return Ok(None);
            }
            wire_rx_bytes().add(n as u64);
            if n == MAX_LINE_BYTES && !self.line.ends_with('\n') {
                let msg = format!("message line longer than {MAX_LINE_BYTES} bytes");
                return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let v: Json = serde_json::from_str(trimmed)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            return Message::from_json(v)
                .map(Some)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_through_a_pipe() {
        let mut buf = Vec::new();
        let req = Message::Request {
            id: json!(1),
            method: "transact".to_string(),
            params: json!(["db", {"op": "comment"}]),
        };
        let notif = Message::Notification {
            method: "update".to_string(),
            params: json!(["mon", {}]),
        };
        let resp = Message::Response {
            id: json!(1),
            result: json!([{}]),
            error: Json::Null,
        };
        write_message(&mut buf, &req).unwrap();
        write_message(&mut buf, &notif).unwrap();
        write_message(&mut buf, &resp).unwrap();

        let mut reader = MessageReader::new(buf.as_slice());
        assert_eq!(reader.read().unwrap().unwrap(), req);
        assert_eq!(reader.read().unwrap().unwrap(), notif);
        assert_eq!(reader.read().unwrap().unwrap(), resp);
        assert_eq!(reader.read().unwrap(), None);
    }

    #[test]
    fn blank_lines_skipped_and_garbage_rejected() {
        let mut reader =
            MessageReader::new("\n\n{\"method\":\"echo\",\"params\":[],\"id\":null}\n".as_bytes());
        assert!(matches!(
            reader.read().unwrap(),
            Some(Message::Notification { .. })
        ));

        let mut bad = MessageReader::new("not json\n".as_bytes());
        assert!(bad.read().is_err());

        let mut neither = MessageReader::new("{\"x\":1}\n".as_bytes());
        assert!(neither.read().is_err());
    }
}
