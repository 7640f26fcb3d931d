//! The Table 2 applicability matrix.
//!
//! "Preferred hinting mechanisms in relation to existing technologies in
//! the target network": **Y** — available; **M** — available in
//! combination with other mechanisms (e.g. a DNS-based method whose search
//! domain arrives via DHCP); **N** — not applicable.
//!
//! The matrix is *derived* from each mechanism's transport requirements
//! rather than hard-coded per cell, and the unit tests assert cell-by-cell
//! equality with the paper's table — so if the derivation logic drifts,
//! the reproduction fails loudly.

use crate::hints::{HintMechanism, NetworkProfile};

/// One cell of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Availability {
    /// "Y": the mechanism works on this network as-is.
    Yes,
    /// "M": works only in combination with another mechanism.
    Combined,
    /// "N": not applicable / unavailable.
    No,
}

impl Availability {
    /// Table cell letter.
    fn letter(&self) -> &'static str {
        match self {
            Availability::Yes => "Y",
            Availability::Combined => "M",
            Availability::No => "N",
        }
    }
}

/// Computes one cell of Table 2.
pub fn availability(mech: HintMechanism, profile: NetworkProfile) -> Availability {
    use Availability::*;
    use HintMechanism::*;
    use NetworkProfile::*;

    match mech {
        // DHCPv4 options need a v4 DHCP server handing out leases.
        DhcpVivo | DhcpOption72 => match profile {
            DynDhcpLeases => Yes,
            _ => No,
        },
        // DHCPv6 option needs a DHCPv6 lease.
        Dhcpv6Vsio => match profile {
            DynDhcpv6Lease => Yes,
            _ => No,
        },
        // NDP rides router advertisements; it can also deliver the DNS
        // configuration that makes DNS methods work ("M" under DHCPv6),
        // and static-IPv6 networks still see RAs (the table's parenthetical
        // "Y if IPv6" — conservatively N for the static column).
        Ipv6NdpRa => match profile {
            StaticIpsOnly => No,
            DynDhcpLeases => No,
            DynDhcpv6Lease => Combined,
            Ipv6Ras => Yes,
            LocalDnsSearchDomain => Yes,
        },
        // DNS-based unicast methods need resolver + search domain, which a
        // DHCP(v6) lease can supply (M), an RA can supply (Y per RFC 6106),
        // or the network configures directly (Y).
        DnsSrv | DnsSd | DnsNaptr => match profile {
            StaticIpsOnly => No,
            DynDhcpLeases | DynDhcpv6Lease => Combined,
            Ipv6Ras | LocalDnsSearchDomain => Yes,
        },
        // mDNS needs only the broadcast domain: works even on static
        // networks; on DHCP networks it complements the lease (M).
        Mdns => match profile {
            StaticIpsOnly => Yes,
            DynDhcpLeases | DynDhcpv6Lease => Combined,
            Ipv6Ras | LocalDnsSearchDomain => Yes,
        },
    }
}

/// Renders the full Table 2 as text (the `table2_hint_matrix` experiment).
pub fn render_table2() -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<12}", ""));
    for p in NetworkProfile::all() {
        out.push_str(&format!("{:>26}", p.name()));
    }
    out.push('\n');
    for m in HintMechanism::table2_rows() {
        out.push_str(&format!("{:<12}", m.name()));
        for p in NetworkProfile::all() {
            out.push_str(&format!("{:>26}", availability(*m, *p).letter()));
        }
        out.push('\n');
    }
    out
}

/// The set of mechanisms usable (Y or M) on a network profile, in
/// preference order — what the bootstrap client actually tries.
pub fn usable_mechanisms(profile: NetworkProfile) -> Vec<HintMechanism> {
    HintMechanism::all()
        .iter()
        .copied()
        .filter(|m| availability(*m, profile) != Availability::No)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use Availability::*;
    use HintMechanism::*;
    use NetworkProfile::*;

    /// Cell-by-cell check against the paper's Table 2.
    #[test]
    fn matches_paper_table2() {
        // Rows in paper order; columns: Static, DHCP, DHCPv6, RA, DNS.
        let expected: &[(HintMechanism, [Availability; 5])] = &[
            (DhcpVivo, [No, Yes, No, No, No]),
            (Dhcpv6Vsio, [No, No, Yes, No, No]),
            (Ipv6NdpRa, [No, No, Combined, Yes, Yes]),
            (DnsSrv, [No, Combined, Combined, Yes, Yes]),
            (DnsSd, [No, Combined, Combined, Yes, Yes]),
            (Mdns, [Yes, Combined, Combined, Yes, Yes]),
            (DnsNaptr, [No, Combined, Combined, Yes, Yes]),
        ];
        for (mech, row) in expected {
            for (profile, want) in NetworkProfile::all().iter().zip(row.iter()) {
                assert_eq!(
                    availability(*mech, *profile),
                    *want,
                    "cell ({}, {})",
                    mech.name(),
                    profile.name()
                );
            }
        }
    }

    #[test]
    fn static_networks_have_exactly_mdns() {
        assert_eq!(usable_mechanisms(StaticIpsOnly), vec![Mdns]);
    }

    #[test]
    fn dhcp_networks_prefer_dhcp_options() {
        let usable = usable_mechanisms(DynDhcpLeases);
        assert_eq!(usable[0], DhcpVivo);
        assert!(usable.contains(&DhcpOption72));
        assert!(!usable.contains(&Dhcpv6Vsio));
    }

    #[test]
    fn every_profile_has_a_usable_mechanism() {
        for p in NetworkProfile::all() {
            assert!(!usable_mechanisms(*p).is_empty(), "profile {}", p.name());
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let t = render_table2();
        for m in HintMechanism::table2_rows() {
            assert!(t.contains(m.name()));
        }
        assert_eq!(t.lines().count(), 8); // header + 7 rows
    }
}
