//! Typed errors for the session API.
//!
//! The original monolithic pipeline asserted or silently clamped on bad
//! input; the session API surfaces every recoverable condition as a
//! [`RempError`] so external crowd drivers (which cannot "just fix the
//! closure") can react programmatically.

use std::fmt;

use crate::session::QuestionId;

/// Everything that can go wrong while driving a
/// [`RempSession`](crate::RempSession).
#[derive(Clone, Debug, PartialEq)]
pub enum RempError {
    /// The submitted id does not belong to the currently open batch.
    UnknownQuestion(QuestionId),
    /// The question already received its answers.
    AlreadyAnswered(QuestionId),
    /// An answer was submitted with no labels at all.
    EmptyLabels(QuestionId),
    /// `next_batch` was called while the open batch still has unanswered
    /// questions; submit those (or abandon via `finish`) first.
    BatchOutstanding {
        /// How many questions of the open batch still await answers.
        unanswered: usize,
    },
    /// The configuration fails validation (message names the field).
    InvalidConfig(String),
    /// A checkpoint does not belong to the supplied knowledge bases /
    /// configuration (message explains the mismatch).
    CheckpointMismatch(String),
    /// A checkpoint document cannot be decoded.
    MalformedCheckpoint(String),
}

impl fmt::Display for RempError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RempError::UnknownQuestion(id) => {
                write!(f, "question {id} is not part of the open batch")
            }
            RempError::AlreadyAnswered(id) => {
                write!(f, "question {id} was already answered")
            }
            RempError::EmptyLabels(id) => {
                write!(f, "no labels submitted for question {id}")
            }
            RempError::BatchOutstanding { unanswered } => {
                write!(f, "the open batch still has {unanswered} unanswered question(s)")
            }
            RempError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            RempError::CheckpointMismatch(msg) => write!(f, "checkpoint mismatch: {msg}"),
            RempError::MalformedCheckpoint(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for RempError {}

/// Checkpoint and config decoders read fields through
/// [`Json::field`](remp_json::Json::field); a field that does not decode
/// makes the checkpoint malformed.
impl From<remp_json::FieldError> for RempError {
    fn from(e: remp_json::FieldError) -> RempError {
        RempError::MalformedCheckpoint(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_question() {
        let err = RempError::UnknownQuestion(QuestionId(42));
        assert!(err.to_string().contains("q42"), "{err}");
        let err = RempError::BatchOutstanding { unanswered: 3 };
        assert!(err.to_string().contains('3'), "{err}");
    }
}
