//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line with an `"op"` member;
//! every response is one JSON object on one line with an `"ok"` member.
//! The full reference — ops, fields, defaults, error shapes — lives in
//! `docs/serving.md`; this module is the single parsing point, so the
//! document and the code agree by construction.
//!
//! Ops: `ping`, `submit`, `poll`, `metrics`, `drain`, `shutdown`,
//! `snapshot_export`, `snapshot_import`.

use crate::json::Json;

/// Priority bands (0 is most urgent). Submissions outside the range are
/// clamped.
pub const PRIORITY_BANDS: usize = 4;

/// Default priority band for submissions that don't specify one.
pub const DEFAULT_PRIORITY: usize = 2;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check; answered immediately with `{"ok": true}`.
    Ping,
    /// Enqueue jobs (one per kernel × replica).
    Submit(SubmitSpec),
    /// Query one job's status (and result, once settled).
    Poll {
        /// The server-assigned job id to query.
        job: u64,
    },
    /// Dump the metrics registry.
    Metrics,
    /// Stop admissions and wait until every admitted job settles.
    Drain,
    /// Drain, then stop the workers and the listener.
    Shutdown,
    /// Export one group's current frozen snapshot as base64 (or, with no
    /// `group` member, list the exportable groups).
    SnapshotExport {
        /// The group fingerprint as 16 hex digits (`None`: list groups).
        group: Option<u64>,
    },
    /// Import an encoded snapshot (base64 of the `fastsim-snapshot/v2`
    /// bytes) into the matching warm-cache group, creating the group if
    /// the server has never seen its configuration.
    SnapshotImport {
        /// The base64-encoded snapshot bytes.
        data: String,
    },
}

/// The body of a `submit` request.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitSpec {
    /// Kernel names, full or bare-suffix, optionally `kernel@preset`
    /// (resolved against the memory-hierarchy presets server-side).
    pub kernels: Vec<String>,
    /// Target dynamic instructions per kernel.
    pub insts: u64,
    /// Copies of each kernel to enqueue (≥ 1).
    pub replicas: usize,
    /// Hierarchy preset applied to kernels without an `@preset` suffix.
    pub hierarchy: Option<String>,
    /// Priority band, 0 (most urgent) .. [`PRIORITY_BANDS`] − 1.
    pub priority: usize,
    /// Client identity for per-client queue fairness.
    pub client: String,
    /// `true`: the response carries the finished results. `false`: the
    /// response carries job ids to `poll`.
    pub wait: bool,
    /// Per-job timeout in milliseconds (`None`: the server default).
    pub timeout_ms: Option<u64>,
    /// Fault injection for testing: the first `chaos_panics` attempts of
    /// each job panic inside the worker.
    pub chaos_panics: u32,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an error response if the line is not
    /// valid JSON, has no/unknown `op`, or a `submit`/`poll` body is
    /// malformed.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing string member `op`".to_string())?;
        match op {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            "poll" => {
                let job = v
                    .get("job")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "poll: missing integer member `job`".to_string())?;
                Ok(Request::Poll { job })
            }
            "submit" => Ok(Request::Submit(SubmitSpec::from_json(&v)?)),
            "snapshot_export" => {
                let group = match v.get("group") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(parse_group(s)?),
                    Some(_) => {
                        return Err(
                            "snapshot_export: `group` must be a hex fingerprint string".to_string()
                        )
                    }
                };
                Ok(Request::SnapshotExport { group })
            }
            "snapshot_import" => {
                let data = v
                    .get("data")
                    .and_then(Json::as_str)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| {
                        "snapshot_import: missing non-empty string member `data`".to_string()
                    })?
                    .to_string();
                Ok(Request::SnapshotImport { data })
            }
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

impl SubmitSpec {
    fn from_json(v: &Json) -> Result<SubmitSpec, String> {
        let kernels = match v.get("kernels") {
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|k| {
                    k.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "submit: `kernels` must hold strings".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?,
            _ => return Err("submit: missing non-empty array member `kernels`".to_string()),
        };
        let insts = v
            .get("insts")
            .and_then(Json::as_u64)
            .ok_or_else(|| "submit: missing integer member `insts`".to_string())?;
        if insts == 0 {
            return Err("submit: `insts` must be positive".to_string());
        }
        let u64_field = |key: &str, default: u64| -> Result<u64, String> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(j) => j.as_u64().ok_or_else(|| format!("submit: `{key}` must be an integer")),
            }
        };
        let hierarchy = match v.get("hierarchy") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err("submit: `hierarchy` must be a string".to_string()),
        };
        let client = match v.get("client") {
            None | Some(Json::Null) => "anonymous".to_string(),
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            Some(_) => return Err("submit: `client` must be a non-empty string".to_string()),
        };
        let timeout_ms = match v.get("timeout_ms") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_u64()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| "submit: `timeout_ms` must be a positive integer".to_string())?,
            ),
        };
        let wait = match v.get("wait") {
            None | Some(Json::Null) => Ok(false),
            Some(Json::Bool(b)) => Ok(*b),
            Some(_) => Err("submit: `wait` must be a boolean".to_string()),
        }?;
        Ok(SubmitSpec {
            kernels,
            insts,
            replicas: u64_field("replicas", 1)?.max(1) as usize,
            hierarchy,
            priority: (u64_field("priority", DEFAULT_PRIORITY as u64)? as usize)
                .min(PRIORITY_BANDS - 1),
            client,
            wait,
            timeout_ms,
            chaos_panics: u64_field("chaos_panics", 0)?.min(u32::MAX as u64) as u32,
        })
    }
}

/// Parses a group fingerprint given as hex digits (the format metrics
/// dumps and `snapshot_export` listings use).
fn parse_group(text: &str) -> Result<u64, String> {
    let digits = text.strip_prefix("0x").unwrap_or(text);
    if digits.is_empty() || digits.len() > 16 {
        return Err(format!("snapshot_export: `group` `{text}` is not a hex fingerprint"));
    }
    u64::from_str_radix(digits, 16)
        .map_err(|_| format!("snapshot_export: `group` `{text}` is not a hex fingerprint"))
}

/// A success response carrying the given members besides `"ok": true`.
pub fn ok_response(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// An error response: `{"ok": false, "error": message}`.
pub fn err_response(message: impl Into<String>) -> Json {
    Json::Obj(vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::Str(message.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        assert_eq!(Request::parse(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::parse(r#"{"op": "metrics"}"#).unwrap(), Request::Metrics);
        assert_eq!(Request::parse(r#"{"op": "drain"}"#).unwrap(), Request::Drain);
        assert_eq!(Request::parse(r#"{"op": "shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(Request::parse(r#"{"op": "poll", "job": 7}"#).unwrap(), Request::Poll { job: 7 });
    }

    #[test]
    fn submit_defaults_and_clamps() {
        let req = Request::parse(r#"{"op": "submit", "kernels": ["compress"], "insts": 1000}"#)
            .unwrap();
        let Request::Submit(spec) = req else { panic!("expected submit") };
        assert_eq!(spec.replicas, 1);
        assert_eq!(spec.priority, DEFAULT_PRIORITY);
        assert_eq!(spec.client, "anonymous");
        assert!(!spec.wait);
        assert_eq!(spec.timeout_ms, None);
        assert_eq!(spec.chaos_panics, 0);

        let req = Request::parse(
            r#"{"op": "submit", "kernels": ["go@tiny-l1"], "insts": 500, "replicas": 0,
                "priority": 99, "client": "c1", "wait": true, "timeout_ms": 250}"#,
        )
        .unwrap();
        let Request::Submit(spec) = req else { panic!("expected submit") };
        assert_eq!(spec.replicas, 1, "replicas clamps up to 1");
        assert_eq!(spec.priority, PRIORITY_BANDS - 1, "priority clamps into range");
        assert!(spec.wait);
        assert_eq!(spec.timeout_ms, Some(250));
    }

    #[test]
    fn parses_snapshot_ops() {
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_export"}"#).unwrap(),
            Request::SnapshotExport { group: None }
        );
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_export", "group": "00000000deadbeef"}"#).unwrap(),
            Request::SnapshotExport { group: Some(0xdead_beef) }
        );
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_export", "group": "0xdeadbeef"}"#).unwrap(),
            Request::SnapshotExport { group: Some(0xdead_beef) }
        );
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_import", "data": "Zm9v"}"#).unwrap(),
            Request::SnapshotImport { data: "Zm9v".to_string() }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"no_op": 1}"#,
            r#"{"op": "warp"}"#,
            r#"{"op": "poll"}"#,
            r#"{"op": "submit", "insts": 1000}"#,
            r#"{"op": "submit", "kernels": [], "insts": 1000}"#,
            r#"{"op": "submit", "kernels": ["compress"], "insts": 0}"#,
            r#"{"op": "submit", "kernels": ["compress"], "insts": 10, "timeout_ms": 0}"#,
            r#"{"op": "submit", "kernels": [3], "insts": 10}"#,
            r#"{"op": "snapshot_export", "group": 7}"#,
            r#"{"op": "snapshot_export", "group": "not-hex"}"#,
            r#"{"op": "snapshot_export", "group": "00112233445566778899"}"#,
            r#"{"op": "snapshot_import"}"#,
            r#"{"op": "snapshot_import", "data": ""}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn response_builders_serialize_stably() {
        assert_eq!(
            ok_response([("jobs", Json::Arr(vec![Json::from(1u64)]))]).to_string(),
            r#"{"ok": true, "jobs": [1]}"#
        );
        assert_eq!(err_response("queue full").to_string(), r#"{"ok": false, "error": "queue full"}"#);
    }
}
