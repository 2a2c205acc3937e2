//! `water-md` — the molecular-simulation substrate for the paper's TIP4P
//! reparameterization application (§3.5).
//!
//! Two interchangeable property engines drive the same cost function:
//!
//! * [`simulate`] — a real (miniature) molecular-dynamics engine: rigid
//!   4-site TIP4P-form water, SHAKE/RATTLE constraints, shifted-force
//!   electrostatics, NVT equilibration + NVE production, measuring
//!   ⟨U⟩, ⟨P⟩, D, and the three RDFs.
//! * [`surrogate`] — a fast analytic response-surface surrogate calibrated
//!   so the published TIP4P parameters sit near its optimum, with the same
//!   `σ²(t) = σ0²/t` sampling-noise structure; this is what the
//!   paper-reproduction experiments run, since a full MD parameterization
//!   needs CPU-years (see `DESIGN.md` — substitutions).
//!
//! [`cost`] implements the weighted relative-residual cost function
//! (Eq. 3.4) with the RDF-to-scalar reduction (Eq. 3.5), exposed as a
//! [`stoch_eval::objective::StochasticObjective`] so every optimizer in
//! `noisy-simplex` can drive it unchanged.

#![warn(missing_docs)]

pub mod blocking;
pub mod cost;
pub mod forces;
pub mod integrate;
pub mod kernel;
pub mod model;
pub mod npt;
pub mod properties;
pub mod reference;
pub mod simd;
pub mod simulate;
pub mod soa;
pub mod surrogate;
pub mod system;
pub mod trajectory;
pub mod units;
pub mod vec3;

pub use cost::{CostWeights, WaterObjective};
pub use kernel::{ForceEngine, ForceKernel};
pub use model::{WaterModel, TIP4P};
pub use reference::Experiment;
pub use simulate::{run_md, MdConfig, MdProperties, Measured};
pub use surrogate::SurrogateWater;
pub use system::System;
pub use vec3::Vec3;
