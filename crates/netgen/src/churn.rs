//! Churn-aware scenario hooks: resolving abstract churn schedules into
//! concrete topology events inside a deployment shape.
//!
//! `ballfit_wsn::churn::ChurnPlan` decides *what* happens (who joins,
//! leaves, drifts) but deliberately knows nothing about geometry; joins
//! need a position and drift-moves must stay inside the deployment volume.
//! [`ChurnDriver`] closes that gap for a generated
//! [`NetworkModel`](crate::model::NetworkModel): it owns the scenario's
//! SDF solid, samples join positions by the same rejection discipline as
//! initial generation ([`crate::sampler::sample_interior`]), and clamps
//! drift targets back inside the solid — all seeded, so a `(plan,
//! position_seed)` pair replays to the identical event trace.

use ballfit_geom::sdf::Sdf;
use ballfit_rng::StdRng;
use ballfit_wsn::churn::{ChurnAction, ChurnEvent, DynamicTopology, TopologyDelta, TopologyEvent};

use crate::model::NetworkModel;
use crate::sampler::sample_interior;
use crate::GenError;

/// Resolves abstract [`ChurnEvent`]s into concrete [`TopologyEvent`]s and
/// applies them to a [`DynamicTopology`] seeded from a generated model.
#[derive(Debug)]
pub struct ChurnDriver {
    shape: Box<dyn Sdf>,
    rng: StdRng,
    dynamic: DynamicTopology,
}

impl ChurnDriver {
    /// Starts a driver at the model's generated state. `position_seed`
    /// seeds the join-position sampler (independent of both the model's
    /// generation seed and the plan's decision seed, mirroring how
    /// measurement noise is seeded independently).
    pub fn new(model: &NetworkModel, position_seed: u64) -> Self {
        ChurnDriver {
            shape: model.shape(),
            rng: StdRng::seed_from_u64(position_seed),
            dynamic: DynamicTopology::new(model.positions(), model.radio_range()),
        }
    }

    /// The maintained dynamic topology.
    pub fn dynamic(&self) -> &DynamicTopology {
        &self.dynamic
    }

    /// Resolves one abstract event against the deployment shape without
    /// applying it:
    ///
    /// * `Join` — a fresh interior position, rejection-sampled like the
    ///   initial interior cloud.
    /// * `Leave` — passed through.
    /// * `Move` — target `position + offset`; if that lands outside the
    ///   solid the offset is halved until the target is inside again (at
    ///   most 4 times, then the node stays put), modelling drift pushed
    ///   back from the deployment boundary.
    pub fn resolve(&mut self, event: &ChurnEvent) -> Result<TopologyEvent, GenError> {
        match event.action {
            ChurnAction::Join { .. } => {
                let pos = sample_interior(self.shape.as_ref(), 1, 0.0, &mut self.rng)?;
                Ok(TopologyEvent::Join { position: pos[0] })
            }
            ChurnAction::Leave { node } => Ok(TopologyEvent::Leave { node }),
            ChurnAction::Move { node, offset } => {
                let home = self.dynamic.positions()[node];
                let mut step = offset;
                for _ in 0..4 {
                    if self.shape.contains(home + step) {
                        return Ok(TopologyEvent::Move { node, to: home + step });
                    }
                    step *= 0.5;
                }
                Ok(TopologyEvent::Move { node, to: home })
            }
        }
    }

    /// Resolves and applies one event, returning the concrete event and
    /// the adjacency delta it produced.
    pub fn step(&mut self, event: &ChurnEvent) -> Result<(TopologyEvent, TopologyDelta), GenError> {
        let resolved = self.resolve(event)?;
        let delta = self.dynamic.apply(&resolved);
        Ok((resolved, delta))
    }
}

/// Shape-membership check used by tests and sweeps: `true` when every
/// live node sits inside (or within `tolerance` of) the solid.
pub fn all_live_inside(driver: &ChurnDriver, tolerance: f64) -> bool {
    let dynamic = driver.dynamic();
    dynamic
        .live_nodes()
        .into_iter()
        .all(|n| driver.shape.distance(dynamic.positions()[n]) <= tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::scenario::Scenario;
    use ballfit_geom::Vec3;
    use ballfit_wsn::churn::ChurnPlan;

    fn model() -> NetworkModel {
        NetworkBuilder::new(Scenario::SolidSphere)
            .surface_nodes(120)
            .interior_nodes(180)
            .target_degree(12.0)
            .require_connected(false)
            .seed(11)
            .build()
            .unwrap()
    }

    #[test]
    fn driver_replays_deterministically() {
        let model = model();
        let plan = ChurnPlan::none()
            .with_seed(5)
            .with_epochs(4)
            .with_join_rate(0.05)
            .with_leave_rate(0.05)
            .with_move_rate(0.1)
            .with_max_drift(model.radio_range());
        let schedule = plan.schedule(model.len());
        assert!(!schedule.is_empty());

        let run = |position_seed: u64| {
            let mut driver = ChurnDriver::new(&model, position_seed);
            let mut resolved = Vec::new();
            for ev in &schedule {
                let (event, delta) = driver.step(ev).expect("sphere sampling never exhausts");
                resolved.push(event);
                // Byte-identity of the incremental topology maintenance.
                assert_eq!(driver.dynamic().topology(), &driver.dynamic().rebuild_reference());
                let _ = delta;
            }
            (resolved, driver)
        };
        let (a, driver_a) = run(1);
        let (b, _) = run(1);
        let (c, _) = run(2);
        assert_eq!(a, b, "same position seed must replay identically");
        assert_ne!(a, c, "position seed must matter (join positions differ)");
        assert!(all_live_inside(&driver_a, 1e-9), "all nodes must stay inside the solid");
    }

    #[test]
    fn moves_are_clamped_into_the_shape() {
        let model = model();
        let mut driver = ChurnDriver::new(&model, 3);
        // Push a node with a drift far larger than the sphere: the halving
        // loop must keep it inside (or leave it at home).
        let node = 0;
        let huge = Vec3::new(100.0, 0.0, 0.0);
        let event = ChurnEvent { epoch: 0, action: ChurnAction::Move { node, offset: huge } };
        let resolved = driver.resolve(&event).unwrap();
        match resolved {
            TopologyEvent::Move { to, .. } => {
                assert!(
                    driver.shape.contains(to) || to == driver.dynamic().positions()[node],
                    "clamped move must stay inside or stay put"
                );
            }
            other => panic!("unexpected resolution {other:?}"),
        }
    }
}
