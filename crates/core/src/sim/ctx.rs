//! The [`SimCtx`] levers a [`StrategyDriver`] pulls: read-only views of a
//! job and the machine, and the malleable shrink and expand of a job's
//! own allocation. It owns no state: every lever reads or updates the
//! [`SimState`] it borrows.

use super::*;

impl SimCtx<'_, '_> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The job's immutable specification.
    pub fn spec(&self, job: JobId) -> &JobSpec {
        &self.state.live(job).spec
    }

    /// Classical nodes the job currently holds (0 while queued).
    pub fn held_nodes(&self, job: JobId) -> u32 {
        self.state.live(job).usage.alloc_nodes
    }

    /// The job's current phase index.
    pub fn phase_index(&self, job: JobId) -> usize {
        self.state.live(job).progress.phase_idx
    }

    /// `true` if the job has a next phase and it is classical.
    pub fn next_phase_is_classical(&self, job: JobId) -> bool {
        let run = self.state.live(job);
        matches!(
            run.spec.phases().get(run.progress.phase_idx),
            Some(Phase::Classical(_))
        )
    }

    /// Queue wait of the job's most recent submission up to now.
    pub fn last_wait(&self, job: JobId) -> SimDuration {
        self.state.last_wait(job, self.now)
    }

    /// Currently free nodes in the classical partition.
    ///
    /// # Errors
    ///
    /// [`SimError::Cluster`] if the machine has no classical partition
    /// (configuration inconsistency).
    pub fn free_nodes(&self) -> Result<u32, SimError> {
        Ok(self.state.cluster.free_nodes("classical")?)
    }

    /// Jobs waiting in the batch queue right now.
    pub fn queue_depth(&self) -> usize {
        self.state.scheduler.pending_len()
    }

    /// Physical QPU devices on the machine.
    pub fn device_count(&self) -> usize {
        self.state.devices.len()
    }

    /// Planning estimate of one quantum phase of `job`, seconds: the mean
    /// over its kernels of the slowest capable device's mean job time.
    /// Zero for jobs without quantum phases.
    pub fn estimate_quantum_secs(&self, job: JobId) -> f64 {
        let spec = self.spec(job);
        let count = spec.kernels().count();
        if count == 0 {
            return 0.0;
        }
        let total: f64 = spec
            .kernels()
            .map(|kernel| self.state.worst_case_device_secs(kernel))
            .sum();
        total / count as f64
    }

    /// Mean duration of the job's classical phases, seconds (zero when it
    /// has none).
    pub fn mean_classical_secs(&self, job: JobId) -> f64 {
        let spec = self.spec(job);
        let classical = spec.phases().len() - spec.quantum_phase_count();
        if classical == 0 {
            0.0
        } else {
            spec.total_classical().as_secs_f64() / classical as f64
        }
    }

    /// Shrinks the job's node allocation down to `target` nodes (no-op if
    /// it already holds `target` or fewer, or holds no allocation).
    /// Returns the number of nodes released.
    ///
    /// # Errors
    ///
    /// [`SimError::Cluster`] if the cluster rejects the shrink.
    pub fn shrink_to(&mut self, job: JobId, target: u32) -> Result<u32, SimError> {
        let (state, now) = (&mut *self.state, self.now);
        let run = state.live(job);
        let (Some(alloc), held) = (run.attempt.alloc, run.usage.alloc_nodes) else {
            return Ok(0);
        };
        if held <= target {
            return Ok(0);
        }
        let released = state.cluster.shrink(alloc, "classical", target, now)?;
        state.live_mut(job).usage.set_alloc_nodes(now, target);
        let count = released.len() as u32;
        emit!(
            state,
            now,
            SimEvent::AllocationChanged {
                job,
                node_delta: -f64::from(count),
                qpu_delta: 0.0,
            }
        );
        Ok(count)
    }

    /// Best-effort expansion of the job's node allocation toward `target`:
    /// grants `min(free, target - held)` nodes, zero when the machine is
    /// busy or the job holds no allocation. Returns the nodes granted.
    ///
    /// # Errors
    ///
    /// [`SimError::Cluster`] if the cluster rejects the expansion.
    pub fn expand_toward(&mut self, job: JobId, target: u32) -> Result<u32, SimError> {
        let (state, now) = (&mut *self.state, self.now);
        let run = state.live(job);
        let (Some(alloc), held) = (run.attempt.alloc, run.usage.alloc_nodes) else {
            return Ok(0);
        };
        if held >= target {
            return Ok(0);
        }
        let free = state.cluster.free_nodes("classical")?;
        let grant = free.min(target - held);
        if grant == 0 {
            return Ok(0);
        }
        let added = state.cluster.expand(alloc, "classical", grant, now)?;
        let count = added.len() as u32;
        state.live_mut(job).usage.set_alloc_nodes(now, held + count);
        emit!(
            state,
            now,
            SimEvent::AllocationChanged {
                job,
                node_delta: f64::from(count),
                qpu_delta: 0.0,
            }
        );
        Ok(count)
    }
}
