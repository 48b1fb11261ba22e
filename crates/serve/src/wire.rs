//! The JSON wire protocol: typed API errors, request-body decoding and
//! the encoders for every response shape (documented end-to-end in
//! `PROTOCOL.md`).
//!
//! Everything here is total: malformed bodies become a 400
//! [`ServeError`], session errors map onto the HTTP status that matches
//! their meaning (duplicate submits are 409, unknown ids 404), and no
//! wire input can panic the encoder or decoder.

use remp_core::{Question, QuestionId, RempError, RempOutcome};
use remp_crowd::Verdict;
use remp_json::{FieldError, FromJson, Json};
use remp_kb::EntityId;

/// A typed API error: HTTP status, stable machine-readable code, and a
/// human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// HTTP status the server responds with.
    pub status: u16,
    /// Stable error code clients can switch on.
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ServeError {
    /// 400 with the given code.
    pub fn bad_request(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError { status: 400, code, message: message.into() }
    }

    /// 404 with the given code.
    pub fn not_found(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError { status: 404, code, message: message.into() }
    }

    /// 409 with the given code.
    pub fn conflict(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError { status: 409, code, message: message.into() }
    }

    /// 500 with the given code.
    pub fn internal(code: &'static str, message: impl Into<String>) -> ServeError {
        ServeError { status: 500, code, message: message.into() }
    }

    /// The response body for this error.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![(
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::from(self.code)),
                ("message".into(), Json::from(self.message.as_str())),
            ]),
        )])
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ServeError {}

/// Maps a session error onto the HTTP semantics it carries: a duplicate
/// submit is a client-visible conflict, an unknown id is a missing
/// resource, everything else is a server-side invariant breach.
impl From<RempError> for ServeError {
    fn from(e: RempError) -> ServeError {
        match e {
            RempError::AlreadyAnswered(id) => {
                ServeError::conflict("already_answered", format!("question {id} is closed"))
            }
            RempError::UnknownQuestion(id) => {
                ServeError::not_found("unknown_question", format!("no question {id}"))
            }
            RempError::EmptyLabels(id) => {
                ServeError::bad_request("empty_labels", format!("no labels for question {id}"))
            }
            other => ServeError::internal("session_error", other.to_string()),
        }
    }
}

// ---- request bodies --------------------------------------------------

/// Request bodies are read through
/// [`Json::field`](remp_json::Json::field): an absent or `null` required
/// field is `missing_field`, a present one of the wrong type or out of
/// range is `bad_field` (both 400).
impl From<FieldError> for ServeError {
    fn from(e: FieldError) -> ServeError {
        let code = match e {
            FieldError::Missing { .. } => "missing_field",
            FieldError::Invalid { .. } => "bad_field",
        };
        ServeError::bad_request(code, e.to_string())
    }
}

/// Parses a request body as a JSON object.
pub fn parse_body(body: &[u8]) -> Result<Json, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("bad_body", "body is not UTF-8"))?;
    let doc = Json::parse(text)
        .map_err(|e| ServeError::bad_request("bad_json", format!("body is not JSON: {e}")))?;
    if doc.as_object().is_none() {
        return Err(ServeError::bad_request("bad_json", "body must be a JSON object"));
    }
    Ok(doc)
}

/// Parses the wire form of a question id (`"q17"`).
pub fn parse_question_id(raw: &str) -> Result<QuestionId, ServeError> {
    raw.parse().map_err(|_| {
        ServeError::bad_request("bad_question_id", format!("{raw:?} is not a question id"))
    })
}

// ---- response encoders -----------------------------------------------

/// Encodes a question as handed to workers.
pub fn question_json(q: &Question) -> Json {
    Json::Obj(vec![
        ("id".into(), Json::from(q.id.to_string())),
        ("u1".into(), Json::from(q.pair.0 .0)),
        ("u2".into(), Json::from(q.pair.1 .0)),
        ("prior".into(), Json::from(q.prior)),
        ("label1".into(), Json::from(q.context.label1.as_str())),
        ("label2".into(), Json::from(q.context.label2.as_str())),
        ("loop".into(), Json::from(q.context.loop_index)),
    ])
}

/// Wire code for a verdict.
pub fn verdict_code(v: Verdict) -> &'static str {
    match v {
        Verdict::Match => "match",
        Verdict::NonMatch => "non_match",
        Verdict::Inconsistent => "inconsistent",
    }
}

/// One submitted question in the campaign's submission log.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmittedRecord {
    /// The question id.
    pub question: u64,
    /// The entity pair asked about.
    pub pair: (EntityId, EntityId),
    /// The inferred verdict.
    pub verdict: Verdict,
}

impl SubmittedRecord {
    /// Compact array form `[id, u1, u2, verdict]`.
    pub fn to_json(&self) -> Json {
        Json::Arr(vec![
            Json::from(self.question),
            Json::from(self.pair.0 .0),
            Json::from(self.pair.1 .0),
            Json::from(verdict_code(self.verdict)),
        ])
    }

    /// Decodes the array form.
    pub fn from_json(doc: &Json) -> Result<SubmittedRecord, ServeError> {
        SubmittedRecord::decode(doc).map_err(|e| {
            ServeError::bad_request("bad_log", format!("malformed submission-log entry: {e}"))
        })
    }
}

impl FromJson<'_> for SubmittedRecord {
    fn decode(doc: &Json) -> Result<SubmittedRecord, FieldError> {
        let (question, u1, u2, verdict) = <(u64, u32, u32, &str)>::decode(doc)?;
        let verdict = match verdict {
            "match" => Verdict::Match,
            "non_match" => Verdict::NonMatch,
            "inconsistent" => Verdict::Inconsistent,
            _ => return Err(FieldError::invalid("a verdict code")),
        };
        Ok(SubmittedRecord { question, pair: (EntityId(u1), EntityId(u2)), verdict })
    }
}

/// Encodes a final outcome plus the submission log — everything a
/// client needs to reproduce and verify the campaign bit-for-bit.
pub fn outcome_json(outcome: &RempOutcome, log: &[SubmittedRecord]) -> Json {
    let resolutions: String = outcome.resolutions.iter().map(|r| r.code()).collect();
    Json::Obj(vec![
        (
            "matches".into(),
            Json::Arr(
                outcome
                    .matches
                    .iter()
                    .map(|&(a, b)| Json::Arr(vec![Json::from(a.0), Json::from(b.0)]))
                    .collect(),
            ),
        ),
        ("resolutions".into(), Json::Str(resolutions)),
        ("questions_asked".into(), Json::from(outcome.questions_asked)),
        ("loops".into(), Json::from(outcome.loops)),
        ("candidate_count".into(), Json::from(outcome.candidate_count)),
        ("retained_count".into(), Json::from(outcome.retained_count)),
        ("edge_count".into(), Json::from(outcome.edge_count)),
        ("log".into(), Json::Arr(log.iter().map(SubmittedRecord::to_json).collect())),
    ])
}

/// Checks a wire outcome document against a locally computed outcome
/// and submission log; any divergence is described in the error.
pub fn outcome_matches(
    doc: &Json,
    expected: &RempOutcome,
    expected_log: &[SubmittedRecord],
) -> Result<(), String> {
    let reference = outcome_json(expected, expected_log);
    for (key, want_value) in reference.as_object().unwrap_or_default() {
        let got_value: &Json = doc.field(key).map_err(|e| format!("wire outcome: {e}"))?;
        if got_value != want_value {
            return Err(format!(
                "outcome field '{key}' diverges:\n  wire     = {got_value}\n  expected = {want_value}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use remp_core::{MatchSource, Resolution};

    #[test]
    fn remp_errors_map_to_their_status() {
        let e: ServeError = RempError::AlreadyAnswered(QuestionId(3)).into();
        assert_eq!((e.status, e.code), (409, "already_answered"));
        let e: ServeError = RempError::UnknownQuestion(QuestionId(3)).into();
        assert_eq!((e.status, e.code), (404, "unknown_question"));
        let e: ServeError = RempError::EmptyLabels(QuestionId(3)).into();
        assert_eq!(e.status, 400);
        let e: ServeError = RempError::BatchOutstanding { unanswered: 2 }.into();
        assert_eq!(e.status, 500);
    }

    #[test]
    fn error_bodies_carry_code_and_message() {
        let doc = ServeError::conflict("nope", "because").to_json();
        let err = doc.get("error").unwrap();
        assert_eq!(err.get("code").unwrap().as_str(), Some("nope"));
        assert_eq!(err.get("message").unwrap().as_str(), Some("because"));
    }

    #[test]
    fn body_accessors_reject_wrong_types() {
        let doc = parse_body(br#"{"s":"x","b":true,"n":3,"z":null,"big":4294967296}"#).unwrap();
        assert_eq!(doc.field::<&str>("s").unwrap(), "x");
        assert!(doc.field::<bool>("b").unwrap());
        assert_eq!(doc.opt_field::<u64>("n").unwrap(), Some(3));
        assert_eq!(doc.opt_field::<u64>("missing").unwrap(), None);
        let code = |e: FieldError| ServeError::from(e).code;
        assert_eq!(code(doc.field::<&str>("n").unwrap_err()), "bad_field");
        assert_eq!(code(doc.field::<bool>("s").unwrap_err()), "bad_field");
        assert_eq!(code(doc.opt_field::<f64>("s").unwrap_err()), "bad_field");
        assert_eq!(code(doc.field::<u32>("big").unwrap_err()), "bad_field");
        assert_eq!(code(doc.field::<bool>("missing").unwrap_err()), "missing_field");
        assert_eq!(code(doc.field::<bool>("z").unwrap_err()), "missing_field");
        assert!(parse_body(b"[1,2]").is_err(), "non-object body");
        assert!(parse_body(b"{oops").is_err(), "broken JSON");
        assert!(parse_body(&[0xff, 0xfe]).is_err(), "non-UTF-8");
    }

    #[test]
    fn submitted_records_round_trip() {
        let r = SubmittedRecord {
            question: 7,
            pair: (EntityId(1), EntityId(2)),
            verdict: Verdict::NonMatch,
        };
        assert_eq!(SubmittedRecord::from_json(&r.to_json()).unwrap(), r);
        assert!(SubmittedRecord::from_json(&Json::Arr(vec![])).is_err());
    }

    fn outcome_fixture() -> RempOutcome {
        RempOutcome {
            matches: vec![(EntityId(0), EntityId(1))],
            resolutions: vec![Resolution::Match(MatchSource::Crowd), Resolution::NonMatch],
            questions_asked: 2,
            loops: 1,
            candidate_count: 5,
            retained_count: 2,
            edge_count: 1,
        }
    }

    #[test]
    fn outcome_comparison_accepts_itself_and_flags_divergence() {
        let outcome = outcome_fixture();
        let log = vec![SubmittedRecord {
            question: 0,
            pair: (EntityId(0), EntityId(1)),
            verdict: Verdict::Match,
        }];
        let doc = outcome_json(&outcome, &log);
        outcome_matches(&doc, &outcome, &log).unwrap();

        let mut other = outcome.clone();
        other.questions_asked = 3;
        let err = outcome_matches(&doc, &other, &log).unwrap_err();
        assert!(err.contains("questions_asked"), "{err}");
    }
}
