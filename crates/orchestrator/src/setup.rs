//! AS setup automation.
//!
//! The orchestrator turns a minimal [`AsDeclaration`] into every artifact a
//! new SCIERA AS needs — border-router configuration, control-service
//! configuration, the bootstrap server's topology document — plus a task
//! checklist whose manual/automated split quantifies the §4.4 claim that
//! automation cut setup "from days to a few hours".

use serde::{Deserialize, Serialize};

use scion_proto::addr::IsdAsn;
use scion_proto::encap::UnderlayAddr;

/// How an AS connects upstream (drives VLAN provisioning tasks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UplinkKind {
    /// Dedicated L2 VLAN across one network (e.g. a GEANT Plus link).
    VlanSingleNetwork,
    /// Point-to-point VLAN crossing several networks (BRIDGES↔GEANT style).
    VlanMultiNetwork {
        /// Number of organisations that must approve/configure it.
        parties: u8,
    },
    /// Shared multipoint VLAN (Internet2 AL2S style) — join, don't build.
    MultipointVlan,
    /// VXLAN overlay where native VLANs are unavailable (SEC@Singapore).
    Vxlan,
}

/// The declaration an operator writes; everything else is generated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AsDeclaration {
    /// The assigned ISD-AS.
    pub ia: IsdAsn,
    /// Human label ("OVGU Magdeburg").
    pub name: String,
    /// Whether this is a core AS.
    pub core: bool,
    /// Upstream attachments: (provider AS, uplink kind).
    pub uplinks: Vec<(IsdAsn, UplinkKind)>,
    /// AS-internal subnet for SCION services (first octets of a /24).
    pub service_subnet: [u8; 3],
}

/// One checklist task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// What has to happen.
    pub description: String,
    /// Whether the orchestrator does it without a human.
    pub automated: bool,
    /// Estimated effort in hours when done manually.
    pub manual_hours: f64,
}

/// The generated plan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SetupPlan {
    /// The declared AS.
    pub ia: IsdAsn,
    /// Generated control-service underlay endpoint.
    pub control_service: UnderlayAddr,
    /// Generated border-router underlay endpoints, one per uplink.
    pub border_routers: Vec<UnderlayAddr>,
    /// Generated bootstrap-server endpoint.
    pub bootstrap_server: UnderlayAddr,
    /// Ordered checklist.
    pub tasks: Vec<Task>,
}

impl SetupPlan {
    /// Generates the plan from a declaration.
    pub fn generate(decl: &AsDeclaration) -> SetupPlan {
        let [a, b, c] = decl.service_subnet;
        let mk = |host: u8, port: u16| UnderlayAddr::new([a, b, c, host], port);
        let mut tasks = vec![
            Task {
                description: "procure commodity server (see §4.3.2 reference setup)".into(),
                automated: false,
                manual_hours: 8.0,
            },
            Task {
                description: "generate control service configuration".into(),
                automated: true,
                manual_hours: 4.0,
            },
            Task {
                description: "generate border router configuration".into(),
                automated: true,
                manual_hours: 4.0,
            },
            Task {
                description: "request AS certificate from ISD CA".into(),
                automated: true,
                manual_hours: 3.0,
            },
            Task {
                description: "deploy bootstrap server + DHCP/DNS hints".into(),
                automated: true,
                manual_hours: 5.0,
            },
            Task {
                description: "register AS in SCIERA monitoring".into(),
                automated: true,
                manual_hours: 1.0,
            },
        ];
        for (provider, kind) in &decl.uplinks {
            let (desc, hours) = match kind {
                UplinkKind::VlanSingleNetwork => (format!("request L2 VLAN to {provider}"), 6.0),
                UplinkKind::VlanMultiNetwork { parties } => (
                    format!("coordinate multi-network VLAN to {provider} ({parties} parties)"),
                    8.0 * *parties as f64,
                ),
                UplinkKind::MultipointVlan => {
                    (format!("join shared multipoint VLAN of {provider}"), 3.0)
                }
                UplinkKind::Vxlan => (format!("establish VXLAN overlay to {provider}"), 10.0),
            };
            // Circuit provisioning is inherently cross-organisation: the
            // orchestrator can template the request but not approve it.
            tasks.push(Task {
                description: desc,
                automated: false,
                manual_hours: hours,
            });
            tasks.push(Task {
                description: format!("configure + verify SCION link to {provider}"),
                automated: true,
                manual_hours: 2.0,
            });
        }
        SetupPlan {
            ia: decl.ia,
            control_service: mk(2, 30252),
            border_routers: (0..decl.uplinks.len() as u8)
                .map(|i| mk(10 + i, 30042))
                .collect(),
            bootstrap_server: mk(3, 8041),
            tasks,
        }
    }

    /// Manual hours remaining with the orchestrator (non-automatable tasks
    /// only).
    pub fn hours_with_orchestrator(&self) -> f64 {
        self.tasks
            .iter()
            .filter(|t| !t.automated)
            .map(|t| t.manual_hours)
            .sum()
    }

    /// Manual hours if everything were done by hand (the pre-orchestrator
    /// world of "manually edited configurations").
    pub fn hours_manual(&self) -> f64 {
        self.tasks.iter().map(|t| t.manual_hours).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scion_proto::addr::ia;

    fn decl() -> AsDeclaration {
        AsDeclaration {
            ia: ia("71-2:0:42"),
            name: "OVGU Magdeburg".into(),
            core: false,
            uplinks: vec![(ia("71-20965"), UplinkKind::VlanSingleNetwork)],
            service_subnet: [10, 42, 0],
        }
    }

    #[test]
    fn generates_endpoints_per_uplink() {
        let plan = SetupPlan::generate(&decl());
        assert_eq!(plan.border_routers.len(), 1);
        assert_eq!(plan.control_service.port, 30252);
        assert_eq!(plan.bootstrap_server.ip, [10, 42, 0, 3]);
    }

    #[test]
    fn orchestrator_cuts_hours_substantially() {
        let plan = SetupPlan::generate(&decl());
        let manual = plan.hours_manual();
        let with = plan.hours_with_orchestrator();
        // "From days to a few hours": at least a 50% cut, and the
        // remaining work is procurement + circuits only.
        assert!(with < manual * 0.6, "with: {with}, manual: {manual}");
        assert!(plan.tasks.iter().filter(|t| !t.automated).all(|t| t
            .description
            .contains("procure")
            || t.description.contains("VLAN")
            || t.description.contains("VXLAN")));
    }

    #[test]
    fn multi_party_vlan_dominates_effort() {
        let mut d = decl();
        d.uplinks = vec![(ia("71-2:0:35"), UplinkKind::VlanMultiNetwork { parties: 4 })];
        let plan = SetupPlan::generate(&d);
        // Princeton's 4-party VLAN story: circuits dwarf everything else.
        let circuit_hours: f64 = plan
            .tasks
            .iter()
            .filter(|t| t.description.contains("multi-network VLAN"))
            .map(|t| t.manual_hours)
            .sum();
        assert_eq!(circuit_hours, 32.0);
        assert!(circuit_hours > plan.hours_with_orchestrator() / 2.0);
    }

    #[test]
    fn multipoint_vlan_is_cheap() {
        let mut d = decl();
        d.uplinks = vec![(ia("71-2:0:35"), UplinkKind::MultipointVlan)];
        let cheap = SetupPlan::generate(&d).hours_with_orchestrator();
        d.uplinks = vec![(ia("71-2:0:35"), UplinkKind::VlanMultiNetwork { parties: 4 })];
        let expensive = SetupPlan::generate(&d).hours_with_orchestrator();
        assert!(cheap < expensive / 2.0);
    }

    #[test]
    fn plan_serialises() {
        let plan = SetupPlan::generate(&decl());
        let json = serde_json::to_string_pretty(&plan).unwrap();
        assert!(json.contains("border_routers"));
        let back: SetupPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.ia, plan.ia);
    }
}
