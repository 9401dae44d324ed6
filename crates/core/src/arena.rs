//! Plan-tree arena: pooled step and item buffers for the planner.
//!
//! Cold-path planning builds and drops a [`crate::plan::NodePlan`] per
//! memo miss, and every plan is a `Vec<Step>` whose steps each own
//! several small vectors (loads, stores, child instructions). Allocating
//! those from the global allocator on every plan is the second-largest
//! cold cost after split search. The arena keeps the buffers alive
//! between plans: the planner draws cleared, capacity-bearing buffers
//! from the pool, and the performance simulator returns a finished
//! plan's buffers once timing has consumed it.
//!
//! Lifetime rules:
//!
//! * an arena belongs to one planner client (one [`crate::perf::PerfSim`],
//!   one executor run) and is dropped with it — buffers never migrate
//!   between machine configurations or threads;
//! * a recycled plan must no longer be referenced — the simulator only
//!   recycles plans it built itself, after the timing walk;
//! * recycling is an optimisation, never a requirement: plans handed to
//!   external callers (executor, timeline) are simply dropped.

use std::cell::{Cell, RefCell};

use crate::plan::Step;

/// Pooled buffers for plan construction, plus retained-byte accounting.
#[derive(Debug, Default)]
pub struct PlanArena {
    steps: RefCell<Vec<Vec<Step>>>,
    step_objs: RefCell<Vec<Step>>,
    retained: Cell<u64>,
    high_water: Cell<u64>,
}

impl PlanArena {
    /// An empty arena.
    pub fn new() -> Self {
        PlanArena::default()
    }

    /// Bytes of buffer capacity currently parked in the pool (estimate:
    /// container capacities only, not nested spare capacity).
    pub fn retained_bytes(&self) -> u64 {
        self.retained.get()
    }

    /// Largest retained-byte figure seen over the arena's lifetime.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water.get()
    }

    /// A cleared step-list buffer (possibly with capacity from a
    /// recycled plan).
    pub(crate) fn take_steps(&self) -> Vec<Step> {
        match self.steps.borrow_mut().pop() {
            Some(buf) => {
                self.credit(-(buf_bytes(&buf) as i64));
                buf
            }
            None => Vec::new(),
        }
    }

    /// A cleared step (possibly with nested vector capacity).
    pub(crate) fn take_step(&self) -> Step {
        self.step_objs.borrow_mut().pop().unwrap_or_default()
    }

    /// Returns a finished plan's step list to the pool.
    pub(crate) fn put_steps(&self, mut steps: Vec<Step>) {
        let mut pool = self.step_objs.borrow_mut();
        for mut s in steps.drain(..) {
            s.loads.clear();
            s.stores.clear();
            s.children = None;
            s.local_exec = None;
            s.streaming_exec = None;
            s.reduce = None;
            s.elided_bytes = 0;
            s.raw_dep_prev = false;
            if pool.len() < 4096 {
                pool.push(s);
            }
        }
        drop(pool);
        self.credit(buf_bytes(&steps) as i64);
        self.steps.borrow_mut().push(steps);
    }

    fn credit(&self, delta: i64) {
        let now = self.retained.get().saturating_add_signed(delta);
        self.retained.set(now);
        if now > self.high_water.get() {
            self.high_water.set(now);
        }
    }
}

fn buf_bytes(buf: &Vec<Step>) -> u64 {
    (buf.capacity() * std::mem::size_of::<Step>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_and_keep_capacity() {
        let arena = PlanArena::new();
        let mut steps = arena.take_steps();
        for _ in 0..16 {
            let mut s = arena.take_step();
            s.elided_bytes = 7;
            steps.push(s);
        }
        let cap = steps.capacity();
        arena.put_steps(steps);
        assert!(arena.retained_bytes() > 0);
        assert!(arena.high_water_bytes() >= arena.retained_bytes());
        let steps = arena.take_steps();
        assert_eq!(steps.capacity(), cap);
        assert!(steps.is_empty());
        assert_eq!(arena.retained_bytes(), 0);
        // Recycled step objects come back cleared.
        let s = arena.take_step();
        assert_eq!(s.elided_bytes, 0);
        assert!(s.loads.is_empty() && s.reduce.is_none());
    }
}
