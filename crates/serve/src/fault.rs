//! The fault-injection seam: how a chaos layer reaches inside the
//! engine without the engine depending on any fault model.
//!
//! A [`FaultInjector`] is consulted once per served frame with the
//! session id and the frame index about to be processed, and answers
//! with a [`FaultAction`]. The engine knows nothing about fault plans,
//! seeds, or probabilities — `hirise-fault` (or a test) supplies those;
//! the engine only supplies the *recovery* machinery:
//!
//! * [`FaultAction::Panic`] unwinds inside the per-frame critical
//!   section — the same unwind path a panic in the pool/detect stages
//!   would take — and the session is quarantined and restored from its
//!   keyframe checkpoint. The unwind skips the panic hook, so an
//!   injected fault prints no panic report.
//! * [`FaultAction::Stall`] adds simulated wall-clock to the frame's
//!   recorded latency (no real sleep — deterministic and fast), which
//!   is what the per-frame deadline watchdog reacts to.
//!
//! Determinism: the injector is consulted with `(session, frame)` only,
//! and implementations are expected to be pure in those arguments —
//! then the fault schedule, quarantine decisions, and watchdog
//! escalations are identical at any worker count.

use crate::engine::SessionId;

/// What the injector wants done to one `(session, frame)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// No fault: process the frame normally.
    None,
    /// Panic inside the frame's critical section (quarantine path).
    Panic,
    /// Add `stall_ms` of simulated latency to the frame (watchdog path).
    Stall {
        /// Simulated stall added to the frame's recorded latency, ms.
        stall_ms: f64,
    },
}

/// A deterministic per-frame fault oracle. Implementations must be pure
/// in `(session, frame_index)` — the engine may consult them from any
/// worker thread in any order.
pub trait FaultInjector: Send + Sync + std::fmt::Debug {
    /// The fault (if any) for `session`'s frame `frame_index`.
    fn action(&self, session: SessionId, frame_index: u32) -> FaultAction;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct PanicAt(u64, u32);

    impl FaultInjector for PanicAt {
        fn action(&self, session: SessionId, frame_index: u32) -> FaultAction {
            if session.0 == self.0 && frame_index == self.1 {
                FaultAction::Panic
            } else {
                FaultAction::None
            }
        }
    }

    #[test]
    fn injector_trait_is_object_safe_and_pure() {
        let injector: Box<dyn FaultInjector> = Box::new(PanicAt(3, 7));
        assert_eq!(injector.action(SessionId(3), 7), FaultAction::Panic);
        assert_eq!(injector.action(SessionId(3), 7), FaultAction::Panic, "must be pure");
        assert_eq!(injector.action(SessionId(3), 8), FaultAction::None);
        assert_eq!(injector.action(SessionId(2), 7), FaultAction::None);
    }
}
