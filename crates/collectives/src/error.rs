//! Error type shared by all collective algorithms.

use std::fmt;

/// Failure of a collective operation at the local rank.
///
/// Mirrors ULFM's semantics: an error is *local* and *per operation* — it
/// says this rank could not complete this collective, typically because a
/// peer died mid-protocol. Different ranks may observe different outcomes
/// for the same collective (some succeed, some fail); reconciling that is
/// the recovery layer's job (`MPIX_Comm_agree` in the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CollError {
    /// A peer (group-local index) needed by the protocol has failed.
    PeerFailed {
        /// Group-local index of the failed peer.
        peer: usize,
    },
    /// The calling rank itself was killed by the fault plan mid-collective.
    SelfDied,
    /// The communicator/context was revoked while the collective ran.
    Revoked,
    /// The context is poisoned and refuses further operations (Gloo-style
    /// behaviour after any fault).
    Aborted,
    /// A live peer sent a message that is not well-formed for the protocol
    /// step it arrived in (a different build, a bug). Typed, because it is
    /// input from outside this process: it must not be able to panic us.
    Malformed {
        /// Group-local index of the peer whose message did not parse.
        peer: usize,
    },
}

impl fmt::Display for CollError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollError::PeerFailed { peer } => write!(f, "peer #{peer} failed during collective"),
            CollError::SelfDied => write!(f, "local rank died during collective"),
            CollError::Revoked => write!(f, "communicator was revoked"),
            CollError::Aborted => write!(f, "context is aborted"),
            CollError::Malformed { peer } => write!(f, "peer #{peer} sent a malformed message"),
        }
    }
}

impl std::error::Error for CollError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            CollError::PeerFailed { peer: 3 }.to_string(),
            "peer #3 failed during collective"
        );
        assert!(CollError::Revoked.to_string().contains("revoked"));
    }
}
