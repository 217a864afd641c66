//! The one-variant engine selector kept for the benchmark's call site.
//!
//! [`crate::System::run`] is the simulator's only run loop (DESIGN.md
//! §14). [`Engine`] and [`crate::System::run_with_engine`] survive only
//! because the `perfbench` benchmark calls
//! `run_with_engine(Engine::Event)`.

/// The execution engine; [`Engine::Event`] is [`crate::System::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The run loop of [`crate::System::run`].
    Event,
}
