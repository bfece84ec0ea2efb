//! 2-D batch normalisation.

use crate::layer::{Layer, Mode, Param};
use crate::NnError;
use bnn_tensor::{Shape, Tensor};

/// Batch normalisation over the channel axis of NCHW tensors.
///
/// During training the layer normalises with batch statistics and updates
/// exponential running estimates; during evaluation (and MC sampling) it uses
/// the running estimates, so MC samples differ only through dropout masks —
/// exactly the behaviour of the PyTorch models in the paper.
#[derive(Debug)]
pub struct BatchNorm2d {
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    normalised: Tensor,
    std_inv: Vec<f32>,
    input_dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if `channels` is zero.
    pub fn new(channels: usize) -> Result<Self, NnError> {
        if channels == 0 {
            return Err(NnError::InvalidConfig(
                "batchnorm channels must be positive".into(),
            ));
        }
        Ok(BatchNorm2d {
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: Param::new(Tensor::ones(&[channels]), false),
            beta: Param::new(Tensor::zeros(&[channels]), false),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            cache: None,
        })
    }

    /// Number of channels normalised by this layer.
    pub fn channels(&self) -> usize {
        self.channels
    }

    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize, usize), NnError> {
        let (n, c, h, w) = Shape::from(dims).as_nchw().map_err(NnError::from)?;
        if c != self.channels {
            return Err(NnError::BadInputShape {
                layer: "batchnorm2d".into(),
                got: dims.to_vec(),
                expected: format!("[batch, {}, h, w]", self.channels),
            });
        }
        Ok((n, c, h, w))
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> &str {
        "batchnorm2d"
    }

    fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor, NnError> {
        let (n, c, h, w) = self.check_input(input.dims())?;
        let plane = h * w;
        let count = (n * plane) as f32;
        let data = input.as_slice();
        let gamma = self.gamma.value.as_slice();
        let beta = self.beta.value.as_slice();

        let (mean, var) = if mode.is_train() {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for (ch, m) in mean.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for b in 0..n {
                    let start = (b * c + ch) * plane;
                    acc += data[start..start + plane].iter().sum::<f32>();
                }
                *m = acc / count;
            }
            for ch in 0..c {
                let mut acc = 0.0f32;
                for b in 0..n {
                    let start = (b * c + ch) * plane;
                    for &v in &data[start..start + plane] {
                        let d = v - mean[ch];
                        acc += d * d;
                    }
                }
                var[ch] = acc / count;
            }
            // update running statistics
            for ch in 0..c {
                self.running_mean[ch] =
                    (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[ch];
                self.running_var[ch] =
                    (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var[ch];
            }
            (mean, var)
        } else {
            (self.running_mean.clone(), self.running_var.clone())
        };

        let std_inv: Vec<f32> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
        let mut normalised = vec![0.0f32; data.len()];
        let mut out = vec![0.0f32; data.len()];
        for b in 0..n {
            for ch in 0..c {
                let start = (b * c + ch) * plane;
                for p in 0..plane {
                    let xhat = (data[start + p] - mean[ch]) * std_inv[ch];
                    normalised[start + p] = xhat;
                    out[start + p] = gamma[ch] * xhat + beta[ch];
                }
            }
        }
        if mode.is_train() {
            self.cache = Some(BnCache {
                normalised: Tensor::from_vec(normalised, input.dims())?,
                std_inv,
                input_dims: input.dims().to_vec(),
            });
        }
        Tensor::from_vec(out, input.dims()).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::MissingForwardCache {
                layer: "batchnorm2d".into(),
            })?;
        let (n, c, h, w) = self.check_input(&cache.input_dims)?;
        let plane = h * w;
        let count = (n * plane) as f32;
        let g = grad_output.as_slice();
        let xhat = cache.normalised.as_slice();
        let gamma = self.gamma.value.as_slice();

        // Parameter gradients.
        let mut dgamma = vec![0.0f32; c];
        let mut dbeta = vec![0.0f32; c];
        for b in 0..n {
            for ch in 0..c {
                let start = (b * c + ch) * plane;
                for p in 0..plane {
                    dgamma[ch] += g[start + p] * xhat[start + p];
                    dbeta[ch] += g[start + p];
                }
            }
        }
        for ch in 0..c {
            self.gamma.grad.as_mut_slice()[ch] += dgamma[ch];
            self.beta.grad.as_mut_slice()[ch] += dbeta[ch];
        }

        // Input gradient (standard batch-norm backward):
        // dx = gamma * std_inv / m * (m*dy - sum(dy) - xhat * sum(dy*xhat))
        let mut out = vec![0.0f32; g.len()];
        for ch in 0..c {
            let sum_dy = dbeta[ch];
            let sum_dy_xhat = dgamma[ch];
            let k = gamma[ch] * cache.std_inv[ch] / count;
            for b in 0..n {
                let start = (b * c + ch) * plane;
                for p in 0..plane {
                    out[start + p] =
                        k * (count * g[start + p] - sum_dy - xhat[start + p] * sum_dy_xhat);
                }
            }
        }
        Tensor::from_vec(out, &cache.input_dims).map_err(NnError::from)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.gamma, &self.beta]
    }

    fn output_shape(&self, input: &Shape) -> Result<Shape, NnError> {
        self.check_input(input.dims())?;
        Ok(input.clone())
    }

    fn flops(&self, input: &Shape) -> u64 {
        // normalise (subtract, multiply) + affine (multiply, add) per element
        4 * input.len() as u64
    }

    fn lowering(&self) -> Result<crate::lowering::LayerLowering, NnError> {
        Ok(crate::lowering::LayerLowering::Affine(
            crate::lowering::BatchNormConsts {
                gamma: self.gamma.value.as_slice().to_vec(),
                beta: self.beta.value.as_slice().to_vec(),
                mean: self.running_mean.clone(),
                std: self
                    .running_var
                    .iter()
                    .map(|&v| (v + self.eps).sqrt())
                    .collect(),
            },
        ))
    }

    fn state(&self) -> Vec<Vec<f32>> {
        vec![self.running_mean.clone(), self.running_var.clone()]
    }

    fn state_len(&self) -> usize {
        2
    }

    fn set_state(&mut self, state: &[Vec<f32>]) -> Result<(), NnError> {
        let channels = self.running_mean.len();
        if state.len() != 2 || state.iter().any(|s| s.len() != channels) {
            return Err(NnError::InvalidConfig(format!(
                "batchnorm state must be two vectors of {channels} channel(s), got {:?}",
                state.iter().map(Vec::len).collect::<Vec<_>>()
            )));
        }
        self.running_mean = state[0].clone();
        self.running_var = state[1].clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_tensor::rng::Xoshiro256StarStar;

    #[test]
    fn train_normalises_batch_statistics() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let x = Tensor::randn(&[8, 2, 4, 4], &mut rng).map(|v| v * 3.0 + 2.0);
        let y = bn.forward(&x, Mode::Train).unwrap();
        // per-channel mean ~ 0, var ~ 1
        for ch in 0..2 {
            let mut vals = Vec::new();
            for b in 0..8 {
                for p in 0..16 {
                    vals.push(y.as_slice()[(b * 2 + ch) * 16 + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        // Train on shifted data for several steps so the running stats adapt.
        for _ in 0..200 {
            let x = Tensor::randn(&[16, 1, 2, 2], &mut rng).map(|v| v * 2.0 + 5.0);
            let _ = bn.forward(&x, Mode::Train).unwrap();
        }
        // A constant eval input equal to the running mean maps close to beta (0).
        let x = Tensor::full(&[1, 1, 2, 2], 5.0);
        let y = bn.forward(&x, Mode::Eval).unwrap();
        assert!(
            y.as_slice().iter().all(|v| v.abs() < 0.2),
            "{:?}",
            y.as_slice()
        );
    }

    #[test]
    fn eval_does_not_update_running_stats() {
        let mut bn = BatchNorm2d::new(1).unwrap();
        let before = bn.running_mean.clone();
        let x = Tensor::full(&[4, 1, 2, 2], 10.0);
        let _ = bn.forward(&x, Mode::Eval).unwrap();
        assert_eq!(bn.running_mean, before);
        let _ = bn.forward(&x, Mode::McSample).unwrap();
        assert_eq!(bn.running_mean, before);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut bn = BatchNorm2d::new(2).unwrap();
        // use non-trivial gamma/beta
        bn.gamma.value = Tensor::from_vec(vec![1.5, 0.5], &[2]).unwrap();
        bn.beta.value = Tensor::from_vec(vec![0.2, -0.3], &[2]).unwrap();
        let x = Tensor::randn(&[3, 2, 2, 2], &mut rng);
        // loss = sum(output * weights)
        let weights = Tensor::randn(&[3, 2, 2, 2], &mut rng);
        let _ = bn.forward(&x, Mode::Train).unwrap();
        bn.zero_grad();
        let grad_in = bn.backward(&weights).unwrap();

        let eps = 1e-2f32;
        let f = |input: &Tensor, bn_ref: &BatchNorm2d| -> f32 {
            let mut fresh = BatchNorm2d::new(2).unwrap();
            fresh.gamma.value = bn_ref.gamma.value.clone();
            fresh.beta.value = bn_ref.beta.value.clone();
            let out = fresh.forward(input, Mode::Train).unwrap();
            out.as_slice()
                .iter()
                .zip(weights.as_slice())
                .map(|(o, w)| o * w)
                .sum()
        };
        for idx in [0usize, 5, 11, x.len() - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let num = (f(&xp, &bn) - f(&xm, &bn)) / (2.0 * eps);
            let ana = grad_in.as_slice()[idx];
            assert!(
                (num - ana).abs() < 0.05 * ana.abs().max(0.5),
                "idx {idx}: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut bn = BatchNorm2d::new(3).unwrap();
        assert!(bn
            .forward(&Tensor::ones(&[1, 2, 4, 4]), Mode::Train)
            .is_err());
        assert!(BatchNorm2d::new(0).is_err());
    }

    #[test]
    fn num_params_is_two_per_channel() {
        let bn = BatchNorm2d::new(16).unwrap();
        assert_eq!(bn.num_params(), 32);
    }
}
