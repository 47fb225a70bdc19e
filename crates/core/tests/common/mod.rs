//! The Fig. 2 fixture (`fig2.rs`) for halo_core's integration suites.

use halo_core::{EvalConfig, HaloConfig};

include!("fig2.rs");
