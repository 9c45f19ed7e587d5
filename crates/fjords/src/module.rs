//! What a non-preemptive module reports after a scheduling quantum.
//!
//! TelegraphCQ's executor maps queries onto "Execution Objects" (threads)
//! hosting "Dispatch Units" that are *non-preemptive* and "follow the Fjords
//! model … which gives us control over their scheduling" (§4.2.2): the
//! scheduler hands a unit a quantum, the unit does at most that much work
//! using only non-blocking Fjord operations, then returns control with a
//! [`ModuleStatus`]. The contract itself is `tcq_executor::DispatchUnit`.

/// What a module reports after a scheduling quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModuleStatus {
    /// Made progress and has more input buffered: schedule again soon.
    Ready,
    /// No input available (or output full): yield; re-schedule later.
    Idle,
    /// All inputs reached EOF and all output flushed: never schedule again.
    Done,
}

impl ModuleStatus {
    /// Combine statuses of submodules: Done only when all done; Ready wins
    /// over Idle.
    pub fn merge(self, other: ModuleStatus) -> ModuleStatus {
        use ModuleStatus::*;
        match (self, other) {
            (Done, Done) => Done,
            (Ready, _) | (_, Ready) => Ready,
            _ => Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_semantics() {
        use ModuleStatus::*;
        assert_eq!(Done.merge(Done), Done);
        assert_eq!(Done.merge(Idle), Idle);
        assert_eq!(Idle.merge(Ready), Ready);
        assert_eq!(Ready.merge(Done), Ready);
        assert_eq!(Idle.merge(Idle), Idle);
    }
}
