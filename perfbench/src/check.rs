//! Output checks, read from the system's public accessors only.
//!
//! * Capacity constraints (1b)/(1c) of the paper: on every element and
//!   resource, the Best-Effort load `Σ_BE x_J · combined_load_J` fits the
//!   GR residual, the Guaranteed-Rate reservations `Σ_GR Σ_p r_p · load_p`
//!   fit the nominal capacity, and — unless capacities fluctuate, in
//!   which case a shrunken element may leave a GR guarantee violated by
//!   design — both together fit the current capacity.
//! * Every placement path validates against its task graph and the
//!   network, with the application's pins respected.
//!
//! Each finding names the constraint it broke, so a workload can tell a
//! known program defect (counted as failed operations) from a wrong
//! output (which fails the run).

use sparcle_core::{AssignedPath, SparcleSystem};
use sparcle_model::{Application, CapacityMap, LoadMap, NetworkElement};

const REL_TOL: f64 = 1e-6;
const ABS_TOL: f64 = 1e-9;

/// One violated constraint on one element (or one bad placement).
pub struct Finding {
    pub constraint: &'static str,
    pub message: String,
}

/// The BE-load constraint (1c): Best-Effort load within the GR residual.
pub const BE_OVER_GR_RESIDUAL: &str = "be_load_over_gr_residual";

/// The messages of `findings`, for workloads where each one fails the
/// run.
pub fn messages(findings: Vec<Finding>) -> Vec<String> {
    findings.into_iter().map(|f| f.message).collect()
}

/// Returns one finding per violated constraint (empty when all hold).
/// `fluctuating` relaxes the combined check as described in the module
/// docs.
pub fn system(sys: &SparcleSystem, fluctuating: bool) -> Vec<Finding> {
    let net = sys.network();
    let mut be = LoadMap::zeroed(net);
    let mut gr = LoadMap::zeroed(net);
    let mut out = Vec::new();
    for a in sys.be_apps() {
        be.merge_scaled(&a.combined_load, a.allocated_rate);
        for p in &a.paths {
            placement(&a.app, p, sys, &mut out);
        }
    }
    for a in sys.gr_apps() {
        for (p, r) in &a.paths {
            gr.merge_scaled(&p.load, *r);
            placement(&a.app, p, sys, &mut out);
        }
    }
    let mut both = be.clone();
    both.merge_scaled(&gr, 1.0);
    fits(&be, sys.gr_residual(), BE_OVER_GR_RESIDUAL, &mut out);
    fits(
        &gr,
        &net.capacity_map(),
        "gr_reservations_over_nominal_capacity",
        &mut out,
    );
    if !fluctuating {
        fits(
            &both,
            sys.state().current_capacities(),
            "be_plus_gr_load_over_current_capacity",
            &mut out,
        );
    }
    out
}

fn placement(app: &Application, path: &AssignedPath, sys: &SparcleSystem, out: &mut Vec<Finding>) {
    if let Err(e) = path.placement.validate(app.graph(), sys.network()) {
        out.push(Finding {
            constraint: "placement_valid",
            message: format!("invalid placement: {e}"),
        });
    }
    for (&ct, &host) in app.pinned() {
        if path.placement.ct_host(ct) != Some(host) {
            out.push(Finding {
                constraint: "pins_respected",
                message: format!("pin of {ct} to {host} not respected"),
            });
        }
    }
}

fn fits(load: &LoadMap, caps: &CapacityMap, what: &'static str, out: &mut Vec<Finding>) {
    for ncp in 0..load.ncp_count() {
        let e = NetworkElement::Ncp(sparcle_model::NcpId::new(ncp as u32));
        let cap = caps.element(e);
        for (kind, used) in load.element(e).iter() {
            over(used, cap.amount(kind), e, what, out);
        }
    }
    for link in 0..load.link_count() {
        let id = sparcle_model::LinkId::new(link as u32);
        over(
            load.link(id),
            caps.link(id),
            NetworkElement::Link(id),
            what,
            out,
        );
    }
}

fn over(used: f64, cap: f64, e: NetworkElement, what: &'static str, out: &mut Vec<Finding>) {
    if !used.is_finite() || used > cap * (1.0 + REL_TOL) + ABS_TOL {
        out.push(Finding {
            constraint: what,
            message: format!("{what} on {e:?}: {used} > {cap}"),
        });
    }
}
