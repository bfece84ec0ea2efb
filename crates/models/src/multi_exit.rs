//! Runtime multi-exit network built from a [`NetworkSpec`].

use crate::error::ModelError;
use crate::spec::NetworkSpec;
use bnn_nn::layer::{Mode, Param};
use bnn_nn::network::Network;
use bnn_nn::{Layer, NnError, Sequential};
use bnn_tensor::{Shape, Tensor};

/// A full snapshot of a trained [`MultiExitNetwork`]: every trainable
/// parameter plus every layer's non-trainable state (e.g. batchnorm running
/// statistics), sufficient to reproduce the network's evaluation behaviour in
/// a freshly built instance.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkCheckpoint {
    /// Trainable parameter tensors, in [`Network::params_mut`] order.
    pub params: Vec<Tensor>,
    /// Non-trainable layer state per top-level container: backbone blocks
    /// first, then exit branches in attachment order.
    pub container_state: Vec<Vec<Vec<f32>>>,
}

/// A trainable multi-exit network: a chain of backbone blocks with one or more
/// exit branches attached at block boundaries.
///
/// The final exit (the network's original classifier head) is always attached
/// after the last block. Exit logits are returned in attachment order, so the
/// last element of [`Network::forward_exits`] is the final exit.
#[derive(Debug)]
pub struct MultiExitNetwork {
    name: String,
    classes: usize,
    blocks: Vec<Sequential>,
    /// `(after_block, branch)` pairs, sorted by `after_block` with the final
    /// exit last.
    exits: Vec<(usize, Sequential)>,
    spec: NetworkSpec,
    /// Bumped whenever mutable parameter references are handed out (see
    /// [`Network::params_mut`]) and on every training forward; keys the
    /// compiled-plan cache.
    pub(crate) weight_version: u64,
    /// Lazily compiled inference plan, reused across predictions until the
    /// weights change or the input shape differs (see
    /// [`MultiExitNetwork::cached_plan`]).
    pub(crate) plan_cache: Option<crate::plan::PlanCache>,
}

impl MultiExitNetwork {
    /// Instantiates the runtime network from a validated spec.
    ///
    /// # Errors
    ///
    /// Returns an error if any layer fails to construct.
    pub fn from_spec(spec: &NetworkSpec, seed: u64) -> Result<Self, ModelError> {
        let mut layer_seed = seed;
        let mut blocks = Vec::with_capacity(spec.blocks.len());
        for (i, block_layers) in spec.blocks.iter().enumerate() {
            let mut block = Sequential::new(format!("{}-block{i}", spec.name));
            for layer in block_layers {
                block.push_boxed(layer.build(&mut layer_seed)?);
            }
            blocks.push(block);
        }
        let mut exits = Vec::with_capacity(spec.exits.len());
        for (i, exit) in spec.exits.iter().enumerate() {
            let mut branch = Sequential::new(format!("{}-exit{i}", spec.name));
            for layer in &exit.layers {
                branch.push_boxed(layer.build(&mut layer_seed)?);
            }
            exits.push((exit.after_block, branch));
        }
        Ok(MultiExitNetwork {
            name: spec.name.clone(),
            classes: spec.classes,
            blocks,
            exits,
            spec: spec.clone(),
            weight_version: 0,
            plan_cache: None,
        })
    }

    /// A counter bumped every time mutable parameter references are handed
    /// out ([`Network::params_mut`], and therefore optimizer steps and
    /// checkpoint restores) and on every [`Mode::Train`] forward, which moves
    /// batch-norm running statistics. The compiled-plan cache is keyed on
    /// it, so a stale plan — which embeds copies of the weights and
    /// statistics — can never be served after a mutation.
    pub fn weight_version(&self) -> u64 {
        self.weight_version
    }

    /// Drops the cached plan and bumps the weight version.
    fn invalidate_plan(&mut self) {
        self.weight_version = self.weight_version.wrapping_add(1);
        self.plan_cache = None;
    }

    /// Collects parameter references without bumping the weight version —
    /// the read-only path [`MultiExitNetwork::checkpoint`] uses.
    fn collect_params_mut(&mut self) -> Vec<&mut Param> {
        let mut params = Vec::new();
        for block in &mut self.blocks {
            params.extend(block.params_mut());
        }
        for (_, exit) in &mut self.exits {
            params.extend(exit.params_mut());
        }
        params
    }

    /// The architecture specification this network was built from.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Captures a checkpoint of every trainable parameter and every layer's
    /// non-trainable state (e.g. batchnorm running statistics).
    pub fn checkpoint(&mut self) -> NetworkCheckpoint {
        // Read-only parameter walk: does not bump the weight version, so
        // checkpointing (e.g. for replication) keeps the plan cache warm.
        let params = self
            .collect_params_mut()
            .iter()
            .map(|p| p.value.clone())
            .collect();
        let container_state = self
            .blocks
            .iter()
            .map(Layer::state)
            .chain(self.exits.iter().map(|(_, e)| Layer::state(e)))
            .collect();
        NetworkCheckpoint {
            params,
            container_state,
        }
    }

    /// Restores a checkpoint captured by [`MultiExitNetwork::checkpoint`]
    /// (typically into a freshly built network of the same spec).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidSpec`] if the checkpoint does not match
    /// this network's parameter or state layout.
    pub fn restore(&mut self, checkpoint: &NetworkCheckpoint) -> Result<(), ModelError> {
        let params = self.params_mut();
        if params.len() != checkpoint.params.len() {
            return Err(ModelError::InvalidSpec(format!(
                "checkpoint has {} parameter tensor(s), network expects {}",
                checkpoint.params.len(),
                params.len()
            )));
        }
        for (param, saved) in params.into_iter().zip(&checkpoint.params) {
            if param.value.dims() != saved.dims() {
                return Err(ModelError::InvalidSpec(format!(
                    "checkpoint parameter shape {:?} does not match network shape {:?}",
                    saved.dims(),
                    param.value.dims()
                )));
            }
            param.value = saved.clone();
        }
        let n_containers = self.blocks.len() + self.exits.len();
        if checkpoint.container_state.len() != n_containers {
            return Err(ModelError::InvalidSpec(format!(
                "checkpoint has state for {} container(s), network has {}",
                checkpoint.container_state.len(),
                n_containers
            )));
        }
        let containers = self
            .blocks
            .iter_mut()
            .chain(self.exits.iter_mut().map(|(_, e)| e));
        for (container, state) in containers.zip(&checkpoint.container_state) {
            container.set_state(state)?;
        }
        Ok(())
    }

    /// Number of backbone blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The backbone blocks, in execution order.
    pub fn blocks(&self) -> &[Sequential] {
        &self.blocks
    }

    /// The exit branches as `(after_block, branch)` pairs, in attachment
    /// order (the final exit last).
    pub fn exits(&self) -> &[(usize, Sequential)] {
        &self.exits
    }

    /// Lowers every backbone block to its inference-graph description, in
    /// execution order (see [`bnn_nn::LayerLowering`]).
    ///
    /// # Errors
    ///
    /// Propagates [`NnError::UnsupportedLowering`] from layers without an
    /// inference lowering.
    pub fn block_lowerings(&self) -> Result<Vec<bnn_nn::LayerLowering>, NnError> {
        self.blocks.iter().map(Layer::lowering).collect()
    }

    /// Lowers every exit branch to `(after_block, description)` pairs in
    /// attachment order.
    ///
    /// # Errors
    ///
    /// Propagates [`NnError::UnsupportedLowering`] from layers without an
    /// inference lowering.
    pub fn exit_lowerings(&self) -> Result<Vec<(usize, bnn_nn::LayerLowering)>, NnError> {
        self.exits
            .iter()
            .map(|(after, branch)| Ok((*after, Layer::lowering(branch)?)))
            .collect()
    }

    /// Number of Monte-Carlo Dropout layers in the whole network.
    pub fn mcd_layer_count(&self) -> usize {
        self.blocks
            .iter()
            .map(Sequential::mc_dropout_count)
            .sum::<usize>()
            + self
                .exits
                .iter()
                .map(|(_, e)| e.mc_dropout_count())
                .sum::<usize>()
    }

    /// Builds an inference replica of this network: a freshly constructed
    /// instance of the same spec carrying this network's trained parameters
    /// and layer state.
    ///
    /// Replicas let independent forward passes run concurrently — the
    /// [`Layer`] forward path caches activations in `&mut self`, so
    /// concurrent passes need separate instances. Combined with
    /// [`Network::reseed_mc_streams`], a replica's MC forward passes are
    /// bitwise identical to the original's.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the spec.
    pub fn replicate(&mut self) -> Result<MultiExitNetwork, ModelError> {
        let mut replica = MultiExitNetwork::from_spec(&self.spec, 0)?;
        replica.restore(&self.checkpoint())?;
        Ok(replica)
    }

    /// Runs the backbone only, returning the activation after every block.
    /// This is the tensor the accelerator caches and clones for MC sampling.
    ///
    /// # Errors
    ///
    /// Propagates layer errors.
    pub fn forward_backbone(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, NnError> {
        if mode.is_train() {
            self.invalidate_plan();
        }
        let mut activations = Vec::with_capacity(self.blocks.len());
        let mut current = input.clone();
        for block in &mut self.blocks {
            current = block.forward(&current, mode)?;
            activations.push(current.clone());
        }
        Ok(activations)
    }

    /// Runs only the exit branches on pre-computed backbone activations.
    ///
    /// Re-running this with [`Mode::McSample`] on the *same* activations is how
    /// multi-exit MCD BayesNNs draw additional MC samples without recomputing
    /// the (deterministic, non-Bayesian) backbone — the computational saving
    /// formalised by the paper's Eq. 2.
    ///
    /// # Errors
    ///
    /// Returns an error if `activations` does not contain one tensor per block.
    pub fn forward_exits_from_activations(
        &mut self,
        activations: &[Tensor],
        mode: Mode,
    ) -> Result<Vec<Tensor>, NnError> {
        if activations.len() != self.blocks.len() {
            return Err(NnError::InvalidConfig(format!(
                "expected {} block activations, got {}",
                self.blocks.len(),
                activations.len()
            )));
        }
        if mode.is_train() {
            self.invalidate_plan();
        }
        let mut outputs = Vec::with_capacity(self.exits.len());
        for (after_block, branch) in &mut self.exits {
            outputs.push(branch.forward(&activations[*after_block], mode)?);
        }
        Ok(outputs)
    }
}

impl Network for MultiExitNetwork {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward_exits(&mut self, input: &Tensor, mode: Mode) -> Result<Vec<Tensor>, NnError> {
        let activations = self.forward_backbone(input, mode)?;
        self.forward_exits_from_activations(&activations, mode)
    }

    fn backward_exits(&mut self, grads: &[Tensor]) -> Result<(), NnError> {
        if grads.len() != self.exits.len() {
            return Err(NnError::InvalidConfig(format!(
                "expected {} exit gradients, got {}",
                self.exits.len(),
                grads.len()
            )));
        }
        // Gradient with respect to each block output, accumulated from exits
        // attached there and from downstream blocks.
        let mut pending: Vec<Option<Tensor>> = vec![None; self.blocks.len()];
        for ((after_block, branch), grad) in self.exits.iter_mut().zip(grads) {
            let g = branch.backward(grad)?;
            match &mut pending[*after_block] {
                Some(acc) => acc.add_scaled_inplace(&g, 1.0)?,
                slot => *slot = Some(g),
            }
        }
        let mut downstream: Option<Tensor> = None;
        for (i, block) in self.blocks.iter_mut().enumerate().rev() {
            let mut grad_out = match (pending[i].take(), downstream.take()) {
                (Some(mut a), Some(b)) => {
                    a.add_scaled_inplace(&b, 1.0)?;
                    a
                }
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => {
                    return Err(NnError::InvalidConfig(format!(
                        "no gradient reaches block {i}; every trailing block needs an exit"
                    )))
                }
            };
            grad_out = block.backward(&grad_out)?;
            downstream = Some(grad_out);
        }
        Ok(())
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        // Mutable references can rewrite weights, and a cached plan embeds
        // packed weight copies — invalidate before handing them out.
        self.invalidate_plan();
        self.collect_params_mut()
    }

    fn num_exits(&self) -> usize {
        self.exits.len()
    }

    fn num_classes(&self) -> usize {
        self.classes
    }

    fn reseed_mc_streams(&mut self, master_seed: u64) {
        let mut streams = bnn_tensor::rng::SplitMix64::new(master_seed);
        for block in &mut self.blocks {
            Layer::reseed_mc_streams(block, &mut streams);
        }
        for (_, exit) in &mut self.exits {
            Layer::reseed_mc_streams(exit, &mut streams);
        }
    }

    fn flops(&self, input: &Shape) -> u64 {
        let mut shape = input.clone();
        let mut total = 0u64;
        let mut block_shapes = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            total += block.flops(&shape);
            match block.output_shape(&shape) {
                Ok(next) => shape = next,
                Err(_) => return total,
            }
            block_shapes.push(shape.clone());
        }
        for (after_block, exit) in &self.exits {
            if let Some(s) = block_shapes.get(*after_block) {
                total += exit.flops(s);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{LayerSpec, NetworkSpec};
    use bnn_nn::loss::cross_entropy;
    use bnn_nn::optimizer::Sgd;
    use bnn_tensor::rng::{Rng, Xoshiro256StarStar};

    fn tiny_multi_exit_spec() -> NetworkSpec {
        NetworkSpec::single_exit(
            "tiny",
            1,
            8,
            8,
            3,
            vec![
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 1,
                        out_channels: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 4,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
            ],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 8,
                    out_features: 3,
                },
            ],
        )
        .with_exits_after_every_block()
        .unwrap()
        .with_exit_mcd(0.25)
        .unwrap()
    }

    #[test]
    fn forward_produces_one_logit_tensor_per_exit() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(1).unwrap();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        let exits = net.forward_exits(&x, Mode::Eval).unwrap();
        assert_eq!(exits.len(), 2);
        for logits in &exits {
            assert_eq!(logits.dims(), &[2, 3]);
        }
        assert_eq!(net.num_exits(), 2);
        assert_eq!(net.num_classes(), 3);
        assert_eq!(net.mcd_layer_count(), 2);
    }

    #[test]
    fn backbone_caching_matches_full_forward_in_eval() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(2).unwrap();
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let full = net.forward_exits(&x, Mode::Eval).unwrap();
        let acts = net.forward_backbone(&x, Mode::Eval).unwrap();
        let cached = net
            .forward_exits_from_activations(&acts, Mode::Eval)
            .unwrap();
        for (a, b) in full.iter().zip(&cached) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn mc_samples_differ_only_through_exit_dropout() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(3).unwrap();
        let x = Tensor::ones(&[1, 1, 8, 8]);
        let acts = net.forward_backbone(&x, Mode::Eval).unwrap();
        let s1 = net
            .forward_exits_from_activations(&acts, Mode::McSample)
            .unwrap();
        let s2 = net
            .forward_exits_from_activations(&acts, Mode::McSample)
            .unwrap();
        // same cached backbone, different dropout masks -> different logits
        assert_ne!(s1[0].as_slice(), s2[0].as_slice());
    }

    #[test]
    fn replica_reproduces_mc_samples_bitwise() {
        let spec = tiny_multi_exit_spec();
        // Different build seeds: the checkpoint + reseeded MC streams must
        // fully determine the sampled outputs regardless of initialisation.
        let mut net = spec.build(3).unwrap();
        let mut replica = net.replicate().unwrap();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        net.reseed_mc_streams(41);
        replica.reseed_mc_streams(41);
        let a = net.forward_exits(&x, Mode::McSample).unwrap();
        let b = replica.forward_exits(&x, Mode::McSample).unwrap();
        for (ea, eb) in a.iter().zip(&b) {
            assert_eq!(ea.as_slice(), eb.as_slice());
        }
        // ...and a different stream draws different masks.
        replica.reseed_mc_streams(42);
        let c = replica.forward_exits(&x, Mode::McSample).unwrap();
        assert_ne!(a[0].as_slice(), c[0].as_slice());
    }

    #[test]
    fn backward_accumulates_gradients_from_all_exits() {
        let spec = tiny_multi_exit_spec();
        let mut net = spec.build(4).unwrap();
        let x = Tensor::ones(&[2, 1, 8, 8]);
        let exits = net.forward_exits(&x, Mode::Train).unwrap();
        let grads: Vec<Tensor> = exits.iter().map(|e| Tensor::ones(e.dims())).collect();
        net.zero_grad();
        net.backward_exits(&grads).unwrap();
        let any_grad = net.params_mut().iter().any(|p| p.grad.norm() > 0.0);
        assert!(any_grad);
        // wrong gradient count is rejected
        assert!(net.backward_exits(&grads[..1]).is_err());
    }

    #[test]
    fn flops_match_spec_flops() {
        let spec = tiny_multi_exit_spec();
        let net = spec.build(5).unwrap();
        let spec_total = spec.total_flops().unwrap();
        assert_eq!(net.flops(&spec.input_shape(1)), spec_total);
    }

    #[test]
    fn multi_exit_training_learns_toy_task() {
        // Two-class images: class 0 bright top half, class 1 bright bottom half.
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let n = 32;
        let mut data = vec![0.0f32; n * 64];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            for y in 0..8 {
                for x in 0..8 {
                    let bright = if class == 0 { y < 4 } else { y >= 4 };
                    data[i * 64 + y * 8 + x] = if bright { 1.0 } else { 0.0 } + 0.1 * rng.normal();
                }
            }
            labels.push(class);
        }
        let inputs = Tensor::from_vec(data, &[n, 1, 8, 8]).unwrap();

        let spec = NetworkSpec::single_exit(
            "toy",
            1,
            8,
            8,
            2,
            vec![
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 1,
                        out_channels: 4,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
                vec![
                    LayerSpec::Conv2d {
                        in_channels: 4,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    LayerSpec::Relu,
                    LayerSpec::MaxPool2d {
                        kernel: 2,
                        stride: 2,
                    },
                ],
            ],
            vec![
                LayerSpec::GlobalAvgPool2d,
                LayerSpec::Dense {
                    in_features: 8,
                    out_features: 2,
                },
            ],
        )
        .with_exits_after_every_block()
        .unwrap();
        let mut net = spec.build(7).unwrap();
        let mut sgd = Sgd::new(0.1).with_momentum(0.9);

        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..40 {
            let exits = net.forward_exits(&inputs, Mode::Train).unwrap();
            let mut grads = Vec::new();
            let mut loss = 0.0;
            for logits in &exits {
                let out = cross_entropy(logits, &labels).unwrap();
                loss += out.loss;
                grads.push(out.grad);
            }
            net.zero_grad();
            net.backward_exits(&grads).unwrap();
            let mut params = net.params_mut();
            sgd.step(&mut params);
            if first_loss.is_none() {
                first_loss = Some(loss);
            }
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss.unwrap() * 0.5,
            "loss {first_loss:?} -> {last_loss}"
        );
    }
}
