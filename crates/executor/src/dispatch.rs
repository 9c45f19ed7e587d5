//! Dispatch Units: the executor's unit of scheduling.

use tcq_common::Result;
use tcq_fjords::ModuleStatus;

/// Identifies a submitted dispatch unit.
pub type DuId = u64;

/// A non-preemptive unit of work, scheduled cooperatively by an Execution
/// Object. "DUs are non-preemptive, but they follow the Fjords model …
/// which gives us control over their scheduling" (§4.2.2): `run` must do at
/// most `quantum` units of work using only non-blocking operations, then
/// return control.
pub trait DispatchUnit: Send {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Do up to `quantum` units of work.
    fn run(&mut self, quantum: usize) -> Result<ModuleStatus>;

    /// Messages the DU is holding internally (outboxes, run buffers,
    /// staged batches). The liveness watchdog counts these toward the
    /// in-flight total so data parked inside a DU — which no fjord count
    /// sees — still keeps stall detection honest.
    fn buffered(&self) -> usize {
        0
    }
}

/// Wrap a closure as a DU (tests, ad hoc dataflows).
pub struct FnDu<F> {
    name: String,
    f: F,
}

impl<F> FnDu<F>
where
    F: FnMut(usize) -> Result<ModuleStatus> + Send,
{
    /// Create a closure-backed DU.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnDu {
            name: name.into(),
            f,
        }
    }
}

impl<F> DispatchUnit for FnDu<F>
where
    F: FnMut(usize) -> Result<ModuleStatus> + Send,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, quantum: usize) -> Result<ModuleStatus> {
        (self.f)(quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_du_delegates() {
        let mut calls = 0;
        {
            let mut du = FnDu::new("counter", |q| {
                calls += q;
                Ok(if calls >= 10 {
                    ModuleStatus::Done
                } else {
                    ModuleStatus::Ready
                })
            });
            assert_eq!(du.name(), "counter");
            assert_eq!(du.run(4).unwrap(), ModuleStatus::Ready);
            assert_eq!(du.run(6).unwrap(), ModuleStatus::Done);
        }
        assert_eq!(calls, 10);
    }
}
