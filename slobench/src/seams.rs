//! Timing decorators over the program's trait seams.
//!
//! Each decorator wraps the production implementation, forwards every
//! trait method (including the defaulted ones, so a decorator never
//! silently swaps in a trait default), and records a [`Span`] around
//! the calls that do work. The traced run installs them; the untraced
//! run uses the bare implementations, and the benchmark checks that
//! both give bit-identical results.

use std::sync::Arc;

use rand::rngs::StdRng;

use jockey_cluster::{
    ClusterTopology, ControlDecision, EngineCore, FailureModel, JobController, JobStatus,
    PlacementPolicy, SchedulerPolicy, SpeculationPolicy,
};
use jockey_core::predict::CompletionModel;
use jockey_simrt::time::{SimDuration, SimTime};

use crate::span::Span;

/// Times every scheduling pass.
pub struct TimedScheduler<S> {
    /// The wrapped policy.
    pub inner: S,
    /// `cluster.scheduler.schedule`.
    pub span: Arc<Span>,
}

impl<S: SchedulerPolicy> SchedulerPolicy for TimedScheduler<S> {
    fn schedule(&mut self, core: &mut EngineCore, now: SimTime) {
        let inner = &mut self.inner;
        self.span.time(|| inner.schedule(core, now));
    }

    fn batchable(&self) -> bool {
        self.inner.batchable()
    }
}

/// Times every machine choice under a topology.
pub struct TimedPlacement<P> {
    /// The wrapped policy.
    pub inner: P,
    /// `cluster.placement.place`.
    pub span: Arc<Span>,
}

impl<P: PlacementPolicy> PlacementPolicy for TimedPlacement<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &self,
        topo: &ClusterTopology,
        load: &[u32],
        replicas: &[u32],
        rng: &mut StdRng,
    ) -> u32 {
        self.span
            .time(|| self.inner.place(topo, load, replicas, rng))
    }
}

/// Times every straggler watch pass.
pub struct TimedSpeculation<P> {
    /// The wrapped policy.
    pub inner: P,
    /// `cluster.speculation.watch`.
    pub span: Arc<Span>,
}

impl<P: SpeculationPolicy> SpeculationPolicy for TimedSpeculation<P> {
    fn watch_period(&self, core: &EngineCore) -> Option<SimDuration> {
        self.inner.watch_period(core)
    }

    fn watch(&mut self, core: &mut EngineCore, now: SimTime) {
        let inner = &mut self.inner;
        self.span.time(|| inner.watch(core, now));
    }
}

/// Times every call into the failure model.
pub struct TimedFailure<F> {
    /// The wrapped model.
    pub inner: F,
    /// `cluster.failure`.
    pub span: Arc<Span>,
}

impl<F: FailureModel> FailureModel for TimedFailure<F> {
    fn task_attempt_fails(&mut self, core: &mut EngineCore, job: usize, prob: f64) -> bool {
        let inner = &mut self.inner;
        self.span.time(|| inner.task_attempt_fails(core, job, prob))
    }

    fn next_failure_delay(&mut self, core: &EngineCore) -> Option<SimDuration> {
        let inner = &mut self.inner;
        self.span.time(|| inner.next_failure_delay(core))
    }

    fn on_machine_failure(&mut self, core: &mut EngineCore, now: SimTime) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_machine_failure(core, now));
    }

    fn next_rack_failure_delay(&mut self, core: &EngineCore) -> Option<SimDuration> {
        let inner = &mut self.inner;
        self.span.time(|| inner.next_rack_failure_delay(core))
    }

    fn on_rack_failure(&mut self, core: &mut EngineCore, now: SimTime) {
        let inner = &mut self.inner;
        self.span.time(|| inner.on_rack_failure(core, now));
    }
}

/// Times every control decision of one job.
pub struct TimedController {
    /// The wrapped controller.
    pub inner: Box<dyn JobController>,
    /// `core.control.tick`.
    pub span: Arc<Span>,
}

impl JobController for TimedController {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        let inner = &mut self.inner;
        self.span.time(|| inner.tick(status))
    }

    fn initial(&mut self, status: &JobStatus) -> ControlDecision {
        let inner = &mut self.inner;
        self.span.time(|| inner.initial(status))
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.inner.deadline_changed(new_deadline);
    }
}

/// Counts every query of a completion model (untimed: a query is far
/// shorter than the clock read that would time it).
pub struct CountedModel {
    /// The wrapped model.
    pub inner: Arc<dyn CompletionModel>,
    /// `core.cpa.query` or `core.plane.model_query`.
    pub queries: Arc<Span>,
}

impl CompletionModel for CountedModel {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.queries.bump();
        self.inner.remaining_secs(fs, progress, allocation)
    }

    fn max_allocation(&self) -> u32 {
        self.inner.max_allocation()
    }

    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        self.queries.bump();
        self.inner.size_for_deadline(fs, deadline, slack)
    }
}
