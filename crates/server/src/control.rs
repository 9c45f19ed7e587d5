//! The query-plan queue (PAPER.md §4.2.2): the one way the server reaches
//! plan state. Each DU owns its plan state by value and applies the
//! controls queued for it between units of its own work, so nothing locks
//! that state. Each DU kind has its own small control enum
//! ([`crate::plans::PlanControl`], [`crate::join::JoinControl`]).
//!
//! A control either hands work to the DU and returns at once
//! ([`Control::send`]), or carries a one-shot [`Reply`] its caller waits on
//! for at most [`ANSWER_BOUND`] ([`Control::ask`], or [`Control::request`]
//! and [`Pending::wait`] to ask several DUs at once). A control whose
//! caller stopped waiting before its DU took it on is never applied
//! ([`Reply::answer`]), so a timed-out export leaves the state it would
//! have taken dirty, and a timed-out admission admits nobody. A DU that
//! retired or failed has dropped its queue and every control in it, so a
//! control sent to it is answered as gone at once.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tcq_common::{Result, TcqError};

/// The longest a caller waits for a DU's answer: the checkpoint drain's
/// bound.
pub(crate) const ANSWER_BOUND: Duration = Duration::from_secs(2);

/// [`Reply`]'s states: its caller waits, its DU took the control on, or
/// its caller gave up first.
const WAITING: u8 = 0;
const TAKEN: u8 = 1;
const ABANDONED: u8 = 2;

/// Where a DU puts its answer.
pub(crate) struct Reply<T> {
    answer: SyncSender<T>,
    state: Arc<AtomicU8>,
}

impl<T> Reply<T> {
    /// Apply the control by running `apply`, and answer with what it
    /// returns, unless the caller has stopped waiting: then `apply` never
    /// runs.
    pub(crate) fn answer(self, apply: impl FnOnce() -> T) {
        let taken =
            self.state
                .compare_exchange(WAITING, TAKEN, Ordering::AcqRel, Ordering::Acquire);
        if taken.is_ok() {
            let _ = self.answer.send(apply());
        }
    }

    /// Answer for a control the DU applies whether or not its caller still
    /// waits.
    pub(crate) fn send(self, answer: T) {
        self.answer(|| answer);
    }
}

/// An answer asked for and not read yet.
pub(crate) struct Pending<T> {
    answer: Receiver<T>,
    state: Arc<AtomicU8>,
}

impl<T> Pending<T> {
    /// Wait for the answer until `deadline`: `None` when the DU is gone, an
    /// error when it has not taken the control on by then, which it then
    /// never will. A DU that took it on is waited for: it is answering.
    pub(crate) fn wait(self, deadline: Instant) -> Result<Option<T>> {
        let left = deadline.saturating_duration_since(Instant::now());
        match self.answer.recv_timeout(left) {
            Ok(answer) => Ok(Some(answer)),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
            Err(RecvTimeoutError::Timeout) => {
                let given_up = (self.state).compare_exchange(
                    WAITING,
                    ABANDONED,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
                match given_up {
                    Ok(_) => Err(TcqError::Executor(format!(
                        "a DU did not take its control on within {ANSWER_BOUND:?}"
                    ))),
                    Err(_) => Ok(self.answer.recv().ok()),
                }
            }
        }
    }
}

/// The server's end of one DU's control queue.
pub(crate) struct Control<C>(Sender<C>);

/// A control queue: the server's end, and the DU's.
pub(crate) fn queue<C>() -> (Control<C>, Receiver<C>) {
    let (tx, rx) = mpsc::channel();
    (Control(tx), rx)
}

impl<C> Control<C> {
    /// Queue a control nobody waits for; false when the DU is gone.
    pub(crate) fn send(&self, control: C) -> bool {
        self.0.send(control).is_ok()
    }

    /// Queue a control carrying a reply, without waiting for it. A DU that
    /// is gone drops the reply with the control.
    pub(crate) fn request<T>(&self, control: impl FnOnce(Reply<T>) -> C) -> Pending<T> {
        let (answer, rx) = mpsc::sync_channel(1);
        let state = Arc::new(AtomicU8::new(WAITING));
        let reply = Reply {
            answer,
            state: Arc::clone(&state),
        };
        self.send(control(reply));
        Pending { answer: rx, state }
    }

    /// Queue a control carrying a reply and wait for the answer
    /// ([`Pending::wait`]) for at most [`ANSWER_BOUND`].
    pub(crate) fn ask<T>(&self, control: impl FnOnce(Reply<T>) -> C) -> Result<Option<T>> {
        self.request(control).wait(Instant::now() + ANSWER_BOUND)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A control its caller gave up on is dropped unapplied, and the
    /// caller learns so; one the DU took on is waited for.
    #[test]
    fn a_control_is_applied_only_while_its_caller_waits() {
        let (control, controls) = queue::<Reply<u32>>();
        let late = control.request(|reply| reply);
        let gave_up = late.wait(Instant::now());
        assert!(gave_up.is_err(), "nobody answered by the deadline");
        let mut applied = false;
        controls.recv().unwrap().answer(|| {
            applied = true;
            1
        });
        assert!(!applied, "the abandoned control never ran");

        let taken = control.request(|reply| reply);
        let (started, applying) = mpsc::channel();
        let du = std::thread::spawn(move || {
            controls.recv().unwrap().answer(|| {
                started.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(50));
                2
            })
        });
        applying.recv().unwrap();
        assert_eq!(taken.wait(Instant::now()).unwrap(), Some(2));
        du.join().unwrap();
        assert_eq!(control.ask(|reply| reply).unwrap(), None, "the DU is gone");
    }
}
