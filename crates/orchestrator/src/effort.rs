//! The deployment-effort model (Fig. 3, Appendix C).
//!
//! Fig. 3 plots a "relative estimate of the work hours required to deploy
//! each AS" against time, showing two effects the paper calls out:
//! first-of-a-kind deployments are expensive (GEANT, BRIDGES, KREONET),
//! and repeat deployments of an already-exercised connection type get
//! dramatically cheaper through accumulated experience, automation (§4.4)
//! and shared circuits (multipoint VLANs).
//!
//! The model: each onboarding has a base effort for its connection type,
//! multiplied by a coordination factor (parties that must sign off), a
//! hardware-procurement adder when new machines ship, and a first-of-kind
//! multiplier — then discounted exponentially in the number of previous
//! deployments of the same type, with an extra flat discount once the
//! orchestrator exists. The per-AS facts (type, parties, hardware,
//! dates) come from Appendix C via `sciera-topology`.

use serde::{Deserialize, Serialize};

/// Connection style of an onboarding, per Appendix C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnectionType {
    /// Build a new core AS footprint (GEANT, BRIDGES, KREONET PoPs).
    CoreBuildout,
    /// Point-to-point VLAN crossing several organisations.
    MultiNetworkVlan,
    /// Single-network L2 circuit (GEANT Plus style).
    SingleNetworkVlan,
    /// Join an existing shared multipoint VLAN.
    MultipointJoin,
    /// VXLAN overlay last mile.
    VxlanOverlay,
    /// Reuse circuits an earlier participant already established.
    ReuseExisting,
}

impl ConnectionType {
    /// Base effort in person-hours for the *first* deployment of the type.
    pub fn base_hours(&self) -> f64 {
        match self {
            ConnectionType::CoreBuildout => 400.0,
            ConnectionType::MultiNetworkVlan => 160.0,
            ConnectionType::SingleNetworkVlan => 60.0,
            ConnectionType::MultipointJoin => 30.0,
            ConnectionType::VxlanOverlay => 90.0,
            ConnectionType::ReuseExisting => 15.0,
        }
    }
}

/// One AS onboarding event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnboardingEvent {
    /// Site label ("UVa", "KISTI DJ", …).
    pub name: String,
    /// Month offset from the first deployment (GEANT = 0).
    pub month: u32,
    /// Connection style.
    pub connection: ConnectionType,
    /// Organisations that had to coordinate on circuits.
    pub parties: u8,
    /// Whether new hardware had to be procured and shipped.
    pub hardware_procurement: bool,
}

/// Model parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EffortModel {
    /// Multiplier for the first deployment of a connection type.
    pub first_of_kind_factor: f64,
    /// Per-repeat experience discount: effort × `experience_decay^n`.
    pub experience_decay: f64,
    /// Floor on the experience discount.
    pub min_experience_factor: f64,
    /// Coordination overhead per party beyond the first.
    pub per_party_factor: f64,
    /// Hours added by hardware procurement and shipping.
    pub hardware_hours: f64,
    /// Month the orchestrator became available (§4.4).
    pub orchestrator_month: u32,
    /// Flat multiplier once the orchestrator exists.
    pub orchestrator_factor: f64,
}

impl Default for EffortModel {
    fn default() -> Self {
        EffortModel {
            first_of_kind_factor: 1.6,
            experience_decay: 0.65,
            min_experience_factor: 0.15,
            per_party_factor: 0.35,
            hardware_hours: 60.0,
            orchestrator_month: 26, // mid-2024 relative to June 2022
            orchestrator_factor: 0.6,
        }
    }
}

impl EffortModel {
    /// Evaluates the model over a chronologically ordered event list,
    /// returning per-event estimated effort hours.
    pub fn evaluate(&self, events: &[OnboardingEvent]) -> Vec<f64> {
        let mut seen: Vec<ConnectionType> = Vec::new();
        let mut out = Vec::with_capacity(events.len());
        for ev in events {
            let prior = seen.iter().filter(|t| **t == ev.connection).count();
            let mut effort = ev.connection.base_hours();
            if prior == 0 {
                effort *= self.first_of_kind_factor;
            } else {
                let decay = self
                    .experience_decay
                    .powi(prior as i32)
                    .max(self.min_experience_factor);
                effort *= decay;
            }
            effort *= 1.0 + self.per_party_factor * (ev.parties.saturating_sub(1)) as f64;
            if ev.hardware_procurement {
                effort += self.hardware_hours;
            }
            if ev.month >= self.orchestrator_month {
                effort *= self.orchestrator_factor;
            }
            seen.push(ev.connection);
            out.push(effort);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, month: u32, c: ConnectionType, parties: u8, hw: bool) -> OnboardingEvent {
        OnboardingEvent {
            name: name.into(),
            month,
            connection: c,
            parties,
            hardware_procurement: hw,
        }
    }

    #[test]
    fn repeats_get_cheaper() {
        let model = EffortModel::default();
        let events = vec![
            ev("A", 0, ConnectionType::SingleNetworkVlan, 2, false),
            ev("B", 3, ConnectionType::SingleNetworkVlan, 2, false),
            ev("C", 6, ConnectionType::SingleNetworkVlan, 2, false),
        ];
        let efforts = model.evaluate(&events);
        assert!(
            efforts[0] > efforts[1] && efforts[1] > efforts[2],
            "{efforts:?}"
        );
        // First-of-kind is markedly more expensive than the third repeat.
        assert!(efforts[0] > efforts[2] * 2.0);
    }

    #[test]
    fn coordination_parties_increase_effort() {
        let model = EffortModel::default();
        let base = vec![ev("warmup", 0, ConnectionType::MultiNetworkVlan, 2, false)];
        let mut two = base.clone();
        two.push(ev("X", 5, ConnectionType::MultiNetworkVlan, 2, false));
        let mut four = base;
        four.push(ev("X", 5, ConnectionType::MultiNetworkVlan, 4, false));
        assert!(model.evaluate(&four)[1] > model.evaluate(&two)[1]);
    }

    #[test]
    fn hardware_procurement_adds_flat_cost() {
        let model = EffortModel::default();
        let without = model.evaluate(&[ev("X", 0, ConnectionType::CoreBuildout, 1, false)])[0];
        let with = model.evaluate(&[ev("X", 0, ConnectionType::CoreBuildout, 1, true)])[0];
        assert!((with - without - model.hardware_hours).abs() < 1e-9);
    }

    #[test]
    fn orchestrator_era_cheaper() {
        let model = EffortModel::default();
        let before = model.evaluate(&[
            ev("w", 0, ConnectionType::MultipointJoin, 1, false),
            ev("X", 10, ConnectionType::MultipointJoin, 1, false),
        ])[1];
        let after = model.evaluate(&[
            ev("w", 0, ConnectionType::MultipointJoin, 1, false),
            ev("X", 30, ConnectionType::MultipointJoin, 1, false),
        ])[1];
        assert!((after / before - model.orchestrator_factor).abs() < 1e-9);
    }

    #[test]
    fn experience_floor_holds() {
        let model = EffortModel::default();
        let events: Vec<OnboardingEvent> = (0..20)
            .map(|i| ev(&format!("S{i}"), i, ConnectionType::ReuseExisting, 1, false))
            .collect();
        let efforts = model.evaluate(&events);
        let floor = ConnectionType::ReuseExisting.base_hours()
            * model.min_experience_factor
            * model.orchestrator_factor;
        assert!(efforts.last().unwrap() >= &(floor - 1e-9));
    }

    #[test]
    fn core_buildout_dominates() {
        assert!(
            ConnectionType::CoreBuildout.base_hours()
                > 2.0 * ConnectionType::MultiNetworkVlan.base_hours()
        );
        assert!(
            ConnectionType::ReuseExisting.base_hours()
                < ConnectionType::MultipointJoin.base_hours()
        );
    }
}
