//! # bnn-nn
//!
//! A from-scratch neural-network engine (forward + backward + SGD training)
//! sufficient to train the CNN backbones used in the paper reproduction:
//! LeNet-5, VGG-11/19 and ResNet-18 style networks, with standard dropout and
//! Monte-Carlo Dropout (MCD) layers.
//!
//! The engine is deliberately CPU-only and dependency-free: its purpose is to
//! exercise the *algorithmic* behaviour (accuracy, calibration, FLOPs) of
//! multi-exit MCD BayesNNs so that the transformation framework in `bnn-core`
//! has a faithful software reference, mirroring the role PyTorch/Keras play in
//! the paper.
//!
//! # Example
//!
//! ```
//! use bnn_nn::prelude::*;
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), bnn_nn::NnError> {
//! let mut net = Sequential::new("tiny");
//! net.push(Dense::new(4, 8, 1)?);
//! net.push(Relu::new());
//! net.push(Dense::new(8, 3, 2)?);
//! let x = Tensor::ones(&[2, 4]);
//! let logits = net.forward(&x, Mode::Eval)?;
//! assert_eq!(logits.dims(), &[2, 3]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod flops;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod lowering;
pub mod network;
pub mod optimizer;
pub mod plan;
pub mod sequential;
pub mod trainer;

pub use error::NnError;
pub use layer::{Layer, Mode, Param};
pub use lowering::{BatchNormConsts, LayerLowering};
pub use network::Network;
pub use plan::InferencePlan;
pub use sequential::Sequential;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::layer::{Layer, Mode, Param};
    pub use crate::layers::activation::{Relu, Softmax};
    pub use crate::layers::batchnorm::BatchNorm2d;
    pub use crate::layers::conv2d::Conv2d;
    pub use crate::layers::dense::Dense;
    pub use crate::layers::dropout::{Dropout, McDropout};
    pub use crate::layers::flatten::Flatten;
    pub use crate::layers::pool::{AvgPool2d, GlobalAvgPool2d, MaxPool2d};
    pub use crate::loss::{cross_entropy, distillation_kl, LossOutput};
    pub use crate::network::Network;
    pub use crate::optimizer::{LrSchedule, Sgd};
    pub use crate::sequential::Sequential;
    pub use crate::NnError;
}
