//! Cross-crate integration: hand-written data-parallel training loops over
//! the raw substrates (no `elastic` engine), checking numerical agreement
//! with a single-process reference.

use collectives::{AllreduceAlgo, ReduceOp};
use dnn::{Model, Sgd, SyntheticDataset};
use transport::FaultPlan;
use ulfm::{Proc, Topology, Universe};

const FEATURES: usize = 8;
const CLASSES: usize = 3;
const GLOBAL_BATCH: usize = 24;
const STEPS: usize = 6;

fn reference_run() -> Vec<f32> {
    // Single process, full global batch each step.
    let mut model = Model::mlp(FEATURES, &[12], CLASSES, 11);
    let mut opt = Sgd::new(0.1, 0.9);
    let ds = SyntheticDataset::new(FEATURES, CLASSES, 5);
    for step in 0..STEPS {
        model.zero_grads();
        model.compute_gradients(&ds.batch(step, GLOBAL_BATCH));
        opt.step(&mut model.params_mut());
    }
    model.state_flat()
}

fn distributed_run(world: usize) -> Vec<Vec<f32>> {
    let u = Universe::without_faults(Topology::flat());
    let handles = u
        .spawn_batch(world, move |p: Proc| {
            let comm = p.init_comm();
            let mut model = Model::mlp(FEATURES, &[12], CLASSES, 11);
            let mut opt = Sgd::new(0.1, 0.9);
            let ds = SyntheticDataset::new(FEATURES, CLASSES, 5);
            for step in 0..STEPS {
                let shard = ds.shard(step, GLOBAL_BATCH, comm.rank(), comm.size());
                let weight = shard.labels.len() as f32 / GLOBAL_BATCH as f32;
                model.zero_grads();
                model.compute_gradients(&shard);
                let mut grads: Vec<Vec<f32>> = model
                    .grads()
                    .iter()
                    .map(|g| g.data().iter().map(|v| v * weight).collect())
                    .collect();
                for g in grads.iter_mut() {
                    comm.allreduce(g, ReduceOp::Sum, AllreduceAlgo::Ring)
                        .unwrap();
                }
                model.set_grads(&grads);
                opt.step(&mut model.params_mut());
            }
            model.state_flat()
        })
        .unwrap();
    handles.into_iter().map(|h| h.join()).collect()
}

/// Data-parallel training over the ULFM stack matches single-process
/// training on the same global batches, to floating-point reassociation
/// tolerance.
#[test]
fn data_parallel_matches_reference() {
    let reference = reference_run();
    for world in [2usize, 3, 4] {
        let states = distributed_run(world);
        // All replicas identical (bit-exact).
        for s in &states[1..] {
            assert_eq!(s, &states[0], "replicas diverged at world {world}");
        }
        // And close to the single-process reference.
        let max_rel: f32 = states[0]
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs() / b.abs().max(1e-3))
            .fold(0.0, f32::max);
        assert!(
            max_rel < 5e-2,
            "world {world}: distributed diverged from reference by {max_rel}"
        );
    }
}

/// The same loop over Gloo contexts produces bit-identical results to the
/// ULFM loop — collectives are the same algorithms over the same transport.
#[test]
fn gloo_and_ulfm_stacks_agree() {
    use gloo::Context;
    use transport::{BackendKind, Mesh, RankId};

    let world = 3;
    let ulfm_states = distributed_run(world);

    let mesh = Mesh::new(
        BackendKind::InProc,
        Topology::flat(),
        world,
        FaultPlan::none(),
    )
    .expect("in-process mesh");
    let ranks: Vec<RankId> = (0..world).map(RankId).collect();
    let gloo_states: Vec<Vec<f32>> = mesh.run(|ep| {
        let i = ep.rank().0;
        let ctx = Context::connect(ep, 9, ranks.clone(), i).unwrap();
        let mut model = Model::mlp(FEATURES, &[12], CLASSES, 11);
        let mut opt = Sgd::new(0.1, 0.9);
        let ds = SyntheticDataset::new(FEATURES, CLASSES, 5);
        for step in 0..STEPS {
            let shard = ds.shard(step, GLOBAL_BATCH, ctx.rank(), ctx.size());
            let weight = shard.labels.len() as f32 / GLOBAL_BATCH as f32;
            model.zero_grads();
            model.compute_gradients(&shard);
            let mut grads: Vec<Vec<f32>> = model
                .grads()
                .iter()
                .map(|g| g.data().iter().map(|v| v * weight).collect())
                .collect();
            for g in grads.iter_mut() {
                ctx.allreduce(g, ReduceOp::Sum, AllreduceAlgo::Ring)
                    .unwrap();
            }
            model.set_grads(&grads);
            opt.step(&mut model.params_mut());
        }
        model.state_flat()
    });

    assert_eq!(
        gloo_states[0], ulfm_states[0],
        "stacks must agree bit-exactly"
    );
}

/// Raw forward recovery over the substrates: train, lose a worker, revoke +
/// shrink + redo, keep training — without the elastic engine's help.
#[test]
fn manual_forward_recovery_over_raw_stack() {
    let world = 4;
    let plan = FaultPlan::none().kill_at_point(transport::RankId(2), "allreduce.step", 4);
    let u = Universe::new(Topology::flat(), plan);
    let handles = u
        .spawn_batch(world, move |p: Proc| {
            let mut comm = p.init_comm();
            let mut model = Model::mlp(FEATURES, &[12], CLASSES, 11);
            let mut opt = Sgd::new(0.1, 0.9);
            let ds = SyntheticDataset::new(FEATURES, CLASSES, 5);
            let mut step = 0usize;
            while step < STEPS {
                let shard = ds.shard(step, GLOBAL_BATCH, comm.rank(), comm.size());
                let weight = shard.labels.len() as f32 / GLOBAL_BATCH as f32;
                model.zero_grads();
                model.compute_gradients(&shard);
                let grads_saved: Vec<Vec<f32>> = model
                    .grads()
                    .iter()
                    .map(|g| g.data().iter().map(|v| v * weight).collect())
                    .collect();
                let mut grads = grads_saved.clone();
                let mut i = 0usize;
                let ok = loop {
                    if i == grads.len() {
                        match comm.barrier() {
                            Ok(()) => break true,
                            Err(ulfm::UlfmError::SelfDied) => return None,
                            Err(_) => {}
                        }
                    } else {
                        match comm.allreduce(&mut grads[i], ReduceOp::Sum, AllreduceAlgo::Ring) {
                            Ok(()) => {
                                i += 1;
                                continue;
                            }
                            Err(ulfm::UlfmError::SelfDied) => return None,
                            Err(_) => {}
                        }
                    }
                    // Recovery: revoke, agree on the earliest failed op, shrink,
                    // restore retained inputs and redo.
                    comm.revoke();
                    let agreed = match comm.agree(u64::MAX, i as u64) {
                        Ok(a) => a,
                        Err(_) => return None,
                    };
                    comm = match comm.shrink() {
                        Ok(c) => c,
                        Err(_) => return None,
                    };
                    i = agreed.min as usize;
                    for (k, s) in grads_saved.iter().enumerate().skip(i) {
                        grads[k].copy_from_slice(s);
                    }
                };
                assert!(ok);
                model.set_grads(&grads);
                opt.step(&mut model.params_mut());
                step += 1;
            }
            p.retire();
            Some((comm.size(), model.state_flat()))
        })
        .unwrap();
    let results: Vec<Option<(usize, Vec<f32>)>> = handles.into_iter().map(|h| h.join()).collect();
    assert!(results[2].is_none(), "victim must die");
    let survivors: Vec<&(usize, Vec<f32>)> = results.iter().flatten().collect();
    assert_eq!(survivors.len(), 3);
    for (size, state) in survivors.iter() {
        assert_eq!(*size, 3);
        assert_eq!(state, &survivors[0].1, "survivor replicas diverged");
    }
}
