//! Golden output digests at the default seed (`pckpt_service::grid_digest`
//! for the simulation workloads; combined response digests for the
//! service workloads). A change that moves one changed the results,
//! not just their speed.

/// The pinned digest `name` at the default seed, full size or `--quick`.
pub fn digest(name: &str, quick: bool) -> Option<&'static str> {
    let (full, smoke) = match name {
        "fig4_sweep" => (FIG4, FIG4_QUICK),
        "lanl_panel" => (LANL, LANL_QUICK),
        "fluid_campaign" => (FLUID, FLUID_QUICK),
        // Combined digest of the twelve cold responses, in request order.
        "service_cold" => (SERVICE_COLD, SERVICE_COLD_QUICK),
        _ => return None,
    };
    Some(if quick { smoke } else { full })
}

const FIG4: &str = "987928629f24dbf57683a29c9aafce05";
const FIG4_QUICK: &str = "b3eac4e6d4d097a4dfdb8bb95a52bb94";
const LANL: &str = "c92c46f561770da17ac20268c5b5aa11";
const LANL_QUICK: &str = "bb8b3cb263d87d19015867bbede1efe9";
const FLUID: &str = "ec3513c35a20e5b0d2dc236bea2b3ae0";
const FLUID_QUICK: &str = "edfc35c74f57daced9b26e96d2e2973e";
const SERVICE_COLD: &str = "6706780face4e3360aa92f205590b746";
const SERVICE_COLD_QUICK: &str = "ffb3cf173e49409f58d3d0d1e67eb92f";
