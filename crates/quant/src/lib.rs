//! # bnn-quant
//!
//! Fixed-point quantization for the BayesNN-FPGA reproduction, playing the
//! role QKeras plays in the paper: Phase 3 of the transformation framework
//! searches bitwidths in `{4, 6, 8, 16}` and channel scalings, subject to not
//! degrading algorithmic quality.
//!
//! The crate provides **two execution models** for a quantized network:
//!
//! * **Fake quantization** ([`FixedPointFormat`], [`quantize_network`]) —
//!   weights are snapped to the `ap_fixed<W, I>` grid but evaluation stays in
//!   `f32` on the float kernels. This is the classic pre-HLS error model and
//!   remains available as the Phase 3 A/B reference.
//! * **True integer inference** ([`CalibratedNetwork`], [`QuantParams`],
//!   [`QuantPlan`] in [`plan`]) — activations are calibrated per tensor over
//!   a representative batch, weights and biases become integer codes, and
//!   the compiled plan runs on the integer kernels of `bnn_tensor::int` with
//!   `i32`/`i64` accumulation, power-of-two requantization shifts and
//!   explicit saturation — the arithmetic the FPGA datapath actually
//!   performs, including Monte-Carlo dropout masks applied in the integer
//!   domain from seeded streams. [`QuantPlan::schedule`] exports the same
//!   steps for code generation.
//!
//! [`FakeQuantNetwork`] ([`CalibratedNetwork::fake_quant`]) is the float
//! reference of the integer path: the same calibrated graph evaluated in
//! `f32`, built from the calibration record independently of the plan
//! compiler.
//!
//! # Worked example: calibrate → compile → integer predict
//!
//! ```
//! use bnn_models::{zoo, ModelConfig};
//! use bnn_nn::layer::Mode;
//! use bnn_quant::{CalibratedNetwork, FixedPointFormat};
//! use bnn_tensor::rng::Xoshiro256StarStar;
//! use bnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small multi-exit LeNet-5 (training elided; weights are the build
//! // initialisation here).
//! let spec = zoo::lenet5(&ModelConfig::mnist().with_resolution(12, 12).with_width_divisor(4))
//!     .with_exits_after_every_block()?
//!     .with_exit_mcd(0.25)?;
//! let trained = spec.build(7)?;
//!
//! // 1. Calibrate once: a representative batch fixes every activation
//! //    format. Then compile the plan for one format; weights become 8-bit
//! //    codes here.
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let calib = Tensor::randn(&[8, 1, 12, 12], &mut rng);
//! let calibrated = CalibratedNetwork::calibrate(&trained, &calib)?;
//! let mut plan = calibrated.plan(FixedPointFormat::new(8, 3)?)?;
//!
//! // 2. Integer inference: deterministic logits per exit...
//! let inputs = Tensor::randn(&[4, 1, 12, 12], &mut rng);
//! let logits = plan.forward_exits_int(&inputs, Mode::Eval)?;
//! assert_eq!(logits.last().unwrap().dims(), &[4, 10]);
//!
//! // 3. ...and seeded Monte-Carlo prediction (masks drawn in the integer
//! //    domain): bitwise reproducible for a given seed.
//! let probs = plan.predict_probs(&inputs, 6, 2023)?;
//! let again = plan.predict_probs(&inputs, 6, 2023)?;
//! assert_eq!(probs.as_slice(), again.as_slice());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitwidth;
pub mod calib;
pub mod error;
pub mod fake_quant;
pub mod fixed;
pub mod model;
pub mod params;
pub mod plan;
pub mod schedule;

pub use bitwidth::{BitwidthSearch, CandidateResult};
pub use calib::{CalibratedNetwork, GraphCalibration};
pub use error::QuantError;
pub use fake_quant::FakeQuantNetwork;
pub use fixed::{FixedPointFormat, QuantizationError};
pub use model::{quantize_network, quantize_tensor, tensor_quantization_error};
pub use params::{IntWidth, QuantParams};
pub use plan::QuantPlan;
pub use schedule::{PlanSchedule, ScheduleExit, ScheduleOp, ScheduleStep};
