//! Inference-graph lowering: a structural description of a trained layer
//! stack, decoupled from the `&mut self` training machinery.
//!
//! [`Layer::lowering`](crate::Layer::lowering) turns a layer into a
//! [`LayerLowering`] — an owned, backward-free description carrying exactly
//! what an inference backend needs: weights, geometry, normalisation
//! constants and dropout rates. `bnn-quant` consumes these descriptions to
//! build the true fixed-point integer inference path (calibrated
//! `QuantizedNetwork`s), and the same descriptions — via the compiled plan's
//! exported step schedule — are what `bnn-hls`'s lowered code generator
//! walks to emit per-tensor `ap_fixed` types and packed integer weights. A
//! lowering with no quantized emission rule is a typed error
//! (`Unsupported`) on that path, never a silent fallback.
//!
//! The enum intentionally describes *inference* semantics only:
//!
//! * [`LayerLowering::Affine`] is batch normalisation with its running
//!   statistics frozen. It carries the unfolded constants, so the float
//!   plan reproduces the layer's `gamma * ((x - mean) * (1 / std)) + beta`
//!   bit for bit; [`BatchNormConsts::fold`] gives the per-channel
//!   `scale * x + shift` the fixed-point backends quantize.
//! * Standard dropout lowers to [`LayerLowering::Identity`]: it is inactive
//!   outside training. Monte-Carlo dropout stays stochastic at inference and
//!   lowers to [`LayerLowering::McDropout`], preserving its rate so backends
//!   can reproduce the paper's Algorithm 1 mask-and-scale datapath.

use crate::NnError;
use bnn_tensor::Tensor;

/// A backend-neutral description of one inference-time layer.
///
/// Produced by [`Layer::lowering`](crate::Layer::lowering); see the
/// [module documentation](self) for the design rationale.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerLowering {
    /// 2-D convolution: `weight` is `[out_c, in_c, k, k]`, `bias` is
    /// `[out_c]`, square kernel/stride/padding.
    Conv2d {
        /// Convolution weights, `[out_c, in_c, kernel, kernel]`.
        weight: Tensor,
        /// Per-output-channel bias, `[out_c]`.
        bias: Tensor,
        /// Stride (same on both axes).
        stride: usize,
        /// Zero padding (same on both sides of both axes).
        padding: usize,
    },
    /// Fully-connected layer: `weight` is `[in, out]`, `bias` is `[out]`,
    /// computing `y = x W + b`.
    Dense {
        /// Weights, `[in_features, out_features]`.
        weight: Tensor,
        /// Bias, `[out_features]`.
        bias: Tensor,
    },
    /// Rectified linear unit.
    Relu,
    /// Square-window max pooling.
    MaxPool2d {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Square-window average pooling.
    AvgPool2d {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Global average pooling, `[n, c, h, w] -> [n, c]`.
    GlobalAvgPool2d,
    /// Flatten all axes but the batch axis.
    Flatten,
    /// Per-channel affine transform over NCHW input: evaluation-time batch
    /// normalisation with frozen running statistics.
    Affine(BatchNormConsts),
    /// Monte-Carlo dropout: stochastic at inference time, filter-wise masks
    /// over NCHW tensors, inverted scaling `1 / (1 - rate)` on kept units.
    McDropout {
        /// Drop probability.
        rate: f64,
    },
    /// A layer that is the identity at inference time (e.g. standard
    /// dropout).
    Identity,
    /// An ordered stack of lowered layers (a lowered [`crate::Sequential`]).
    Sequence(Vec<LayerLowering>),
    /// A residual basic block: `relu(main(x) + shortcut(x))`. An empty
    /// shortcut sequence is an identity skip connection.
    Residual {
        /// The main path.
        main: Vec<LayerLowering>,
        /// The projection shortcut (empty for an identity skip).
        shortcut: Vec<LayerLowering>,
    },
}

impl LayerLowering {
    /// A short stable name for the lowered op (mirrors
    /// [`Layer::name`](crate::Layer::name)).
    pub fn name(&self) -> &'static str {
        match self {
            LayerLowering::Conv2d { .. } => "conv2d",
            LayerLowering::Dense { .. } => "dense",
            LayerLowering::Relu => "relu",
            LayerLowering::MaxPool2d { .. } => "max_pool2d",
            LayerLowering::AvgPool2d { .. } => "avg_pool2d",
            LayerLowering::GlobalAvgPool2d => "global_avg_pool2d",
            LayerLowering::Flatten => "flatten",
            LayerLowering::Affine(_) => "affine",
            LayerLowering::McDropout { .. } => "mc_dropout",
            LayerLowering::Identity => "identity",
            LayerLowering::Sequence(_) => "sequence",
            LayerLowering::Residual { .. } => "residual_block",
        }
    }

    /// Returns `true` if the op carries trainable weights (conv / dense).
    pub fn has_weights(&self) -> bool {
        matches!(
            self,
            LayerLowering::Conv2d { .. } | LayerLowering::Dense { .. }
        )
    }
}

/// Batch normalisation's evaluation-time constants, per channel and
/// unfolded: `y = gamma * ((x - mean) * (1 / std)) + beta`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchNormConsts {
    /// Learned scale.
    pub gamma: Vec<f32>,
    /// Learned offset.
    pub beta: Vec<f32>,
    /// Running mean.
    pub mean: Vec<f32>,
    /// `sqrt(running_var + eps)`.
    pub std: Vec<f32>,
}

impl BatchNormConsts {
    /// The folded per-channel `(scale, shift)` of `y = scale * x + shift`:
    /// `scale = gamma / std`, `shift = beta - scale * mean`. Not bit-equal to
    /// the unfolded form; the fixed-point backends quantize this one.
    pub fn fold(&self) -> (Vec<f32>, Vec<f32>) {
        let scale: Vec<f32> = self
            .gamma
            .iter()
            .zip(&self.std)
            .map(|(g, s)| g / s)
            .collect();
        let shift = (self.beta.iter().zip(&scale).zip(&self.mean))
            .map(|((b, s), m)| b - s * m)
            .collect();
        (scale, shift)
    }
}

/// The error a layer without an inference lowering returns from
/// [`Layer::lowering`](crate::Layer::lowering).
pub(crate) fn unsupported(layer: &str) -> NnError {
    NnError::UnsupportedLowering {
        layer: layer.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::layers::activation::{Relu, Softmax};
    use crate::layers::batchnorm::BatchNorm2d;
    use crate::layers::conv2d::Conv2d;
    use crate::layers::dense::Dense;
    use crate::layers::dropout::{Dropout, McDropout};
    use crate::layers::flatten::Flatten;
    use crate::layers::pool::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
    use crate::sequential::Sequential;

    #[test]
    fn every_inference_layer_lowers() {
        let conv = Conv2d::new(2, 3, 3, 1, 1, 0).unwrap();
        match conv.lowering().unwrap() {
            LayerLowering::Conv2d {
                weight,
                bias,
                stride,
                padding,
            } => {
                assert_eq!(weight.dims(), &[3, 2, 3, 3]);
                assert_eq!(bias.dims(), &[3]);
                assert_eq!((stride, padding), (1, 1));
            }
            other => panic!("unexpected lowering {other:?}"),
        }
        let dense = Dense::new(4, 2, 0).unwrap();
        assert!(matches!(
            dense.lowering().unwrap(),
            LayerLowering::Dense { .. }
        ));
        assert!(matches!(
            Relu::new().lowering().unwrap(),
            LayerLowering::Relu
        ));
        assert!(matches!(
            MaxPool2d::new(2, 2).unwrap().lowering().unwrap(),
            LayerLowering::MaxPool2d {
                kernel: 2,
                stride: 2
            }
        ));
        assert!(matches!(
            AvgPool2d::new(2, 2).unwrap().lowering().unwrap(),
            LayerLowering::AvgPool2d { .. }
        ));
        assert!(matches!(
            GlobalAvgPool2d::new().lowering().unwrap(),
            LayerLowering::GlobalAvgPool2d
        ));
        assert!(matches!(
            Flatten::new().lowering().unwrap(),
            LayerLowering::Flatten
        ));
        assert!(matches!(
            Dropout::new(0.5, 0).unwrap().lowering().unwrap(),
            LayerLowering::Identity
        ));
        assert!(matches!(
            McDropout::new(0.25, 0).unwrap().lowering().unwrap(),
            LayerLowering::McDropout { rate } if (rate - 0.25).abs() < 1e-12
        ));
    }

    #[test]
    fn batchnorm_lowering_folds_running_statistics() {
        let mut bn = BatchNorm2d::new(2).unwrap();
        bn.set_state(&[vec![1.0, -0.5], vec![4.0, 0.25]]).unwrap();
        match bn.lowering().unwrap() {
            LayerLowering::Affine(consts) => {
                assert_eq!(consts.mean, vec![1.0, -0.5]);
                assert_eq!(consts.std[0], (4.0f32 + 1e-5).sqrt());
                let (scale, shift) = consts.fold();
                // scale = gamma / sqrt(var + eps); gamma = 1, beta = 0
                assert!((scale[0] - 1.0 / (4.0f32 + 1e-5).sqrt()).abs() < 1e-6);
                assert!((shift[0] + scale[0] * 1.0).abs() < 1e-6);
                assert!((shift[1] - scale[1] * 0.5).abs() < 1e-6);
            }
            other => panic!("unexpected lowering {other:?}"),
        }
    }

    #[test]
    fn sequential_lowering_recurses_and_softmax_is_unsupported() {
        let mut seq = Sequential::new("s");
        seq.push(Dense::new(2, 2, 0).unwrap());
        seq.push(Relu::new());
        match Layer::lowering(&seq).unwrap() {
            LayerLowering::Sequence(ops) => {
                assert_eq!(ops.len(), 2);
                assert!(ops[0].has_weights());
                assert!(!ops[1].has_weights());
            }
            other => panic!("unexpected lowering {other:?}"),
        }
        let err = Softmax::new().lowering().unwrap_err();
        assert!(err.to_string().contains("softmax"));
    }
}
