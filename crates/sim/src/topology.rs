//! Domain-level topologies.
//!
//! A topology is an ordered chain of domains along one HOP path, each
//! contributing up to two HOPs (ingress and egress), connected by
//! inter-domain links. The canonical instance is the paper's Figure 1:
//! source domain `S` (HOP 1), transit domains `L` (HOPs 2,3), `X`
//! (HOPs 4,5), `N` (HOPs 6,7) and destination `D` (HOP 8).

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use vpm_core::receipt::PathId;
use vpm_netsim::channel::ChannelConfig;
use vpm_packet::{DomainId, HeaderSpec, HopId, Ipv4Prefix, SimDuration};

/// What part a domain plays on the path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DomainRole {
    /// Originates the traffic; has only an egress HOP.
    Source,
    /// Forwards the traffic; has ingress and egress HOPs.
    Transit,
    /// Terminates the traffic; has only an ingress HOP.
    Destination,
}

/// One domain on the path.
#[derive(Debug, Clone)]
pub struct DomainSpec {
    /// Identifier.
    pub id: DomainId,
    /// Human-readable name ("S", "L", "X", …).
    pub name: String,
    /// Role on this path.
    pub role: DomainRole,
    /// Ingress HOP (absent for the source).
    pub ingress: Option<HopId>,
    /// Egress HOP (absent for the destination).
    pub egress: Option<HopId>,
    /// What the domain does to transit traffic between its HOPs.
    /// Ignored for source/destination domains.
    pub transit: ChannelConfig,
}

/// An inter-domain link between the egress HOP of one domain and the
/// ingress HOP of the next.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Delivering HOP.
    pub up: HopId,
    /// Receiving HOP.
    pub down: HopId,
    /// Link behaviour (normally near-ideal).
    pub channel: ChannelConfig,
    /// The `MaxDiff` both ends advertise for this link.
    pub max_diff: SimDuration,
}

/// An ordered chain of domains and the links between them.
#[derive(Debug, Clone)]
pub struct Topology {
    /// Domains in path order.
    pub domains: Vec<DomainSpec>,
    /// Links in path order (`domains.len() - 1` of them).
    pub links: Vec<LinkSpec>,
    /// The prefix pair naming this HOP path.
    pub spec: HeaderSpec,
}

impl Topology {
    /// All HOPs in path order.
    pub fn hops(&self) -> Vec<HopId> {
        let mut v = Vec::new();
        for d in &self.domains {
            if let Some(h) = d.ingress {
                v.push(h);
            }
            if let Some(h) = d.egress {
                v.push(h);
            }
        }
        v
    }

    /// The domain owning a HOP.
    pub fn domain_of(&self, hop: HopId) -> Option<&DomainSpec> {
        self.domains
            .iter()
            .find(|d| d.ingress == Some(hop) || d.egress == Some(hop))
    }

    /// The `MaxDiff` of the link a HOP sits on (every HOP is on exactly
    /// one inter-domain link).
    fn link_max_diff(&self, hop: HopId) -> Option<SimDuration> {
        self.links
            .iter()
            .find(|l| l.up == hop || l.down == hop)
            .map(|l| l.max_diff)
    }

    /// This path with domain `name` out of the deployment (§8): it still
    /// carries the traffic, through its own transit and the links on
    /// either side, but runs no HOPs, so it produces no receipts. The
    /// collector measures it over the segment its neighbors' HOPs
    /// bracket. A name not on the path changes nothing.
    pub fn without_hops(mut self, name: &str) -> Self {
        if let Some(d) = self.domains.iter_mut().find(|d| d.name == name) {
            (d.ingress, d.egress) = (None, None);
        }
        self
    }

    /// Domain ids in path order.
    pub fn domain_ids(&self) -> Vec<DomainId> {
        self.domains.iter().map(|d| d.id).collect()
    }

    /// Index of a domain by name.
    pub fn domain_by_name(&self, name: &str) -> Option<&DomainSpec> {
        self.domains.iter().find(|d| d.name == name)
    }

    /// The inter-domain link leaving domain `name`'s egress HOP, as
    /// `(up, down)` HOP ids: where a receipt lie by that domain
    /// surfaces (§3.1).
    pub fn egress_link(&self, name: &str) -> Option<(u16, u16)> {
        let egress = self.domain_by_name(name)?.egress?;
        let link = self.links.iter().find(|l| l.up == egress)?;
        Some((link.up.0, link.down.0))
    }

    /// The `PathID` each HOP stamps on its receipts, in path order —
    /// the single source of truth shared by the path runner (which
    /// registers these on every pipeline) and path-scoped verification
    /// (which uses them to fetch a HOP's frames from exactly one shard
    /// of a sharded transport).
    pub fn hop_path_ids(&self) -> Vec<(HopId, PathId)> {
        let hops = self.hops();
        hops.iter()
            .enumerate()
            .map(|(pos, &hop)| {
                let max_diff = self
                    .link_max_diff(hop)
                    .unwrap_or(SimDuration::from_millis(2));
                #[expect(clippy::indexing_slicing, reason = "guarded by pos > 0")]
                let path = PathId {
                    spec: self.spec,
                    prev_hop: (pos > 0).then(|| hops[pos - 1]),
                    next_hop: hops.get(pos + 1).copied(),
                    max_diff,
                };
                (hop, path)
            })
            .collect()
    }
}

/// Builder for the paper's Figure 1 topology.
#[derive(Debug, Clone)]
pub struct Figure1 {
    /// What domain `X` does to transit traffic (the domain under
    /// evaluation; Figure 2 congests it).
    pub x_transit: ChannelConfig,
    /// What domain `L` does (near-ideal by default).
    pub l_transit: ChannelConfig,
    /// What domain `N` does (near-ideal by default).
    pub n_transit: ChannelConfig,
    /// Inter-domain link delay.
    pub link_delay: SimDuration,
    /// Advertised `MaxDiff` on every link.
    pub max_diff: SimDuration,
    /// The path's prefix pair.
    pub spec: HeaderSpec,
    /// First HOP id (the canonical Figure 1 starts at HOP 1; fleet
    /// instances use disjoint ranges).
    pub hop_base: u16,
    /// First domain id (the canonical Figure 1 starts at domain 0).
    pub domain_base: u16,
}

/// HOPs a [`Figure1`] chain occupies (S:1, L:2, X:2, N:2, D:1).
pub const FIGURE1_HOPS: u16 = 8;
/// Domains a [`Figure1`] chain occupies (S, L, X, N, D).
pub const FIGURE1_DOMAINS: u16 = 5;

impl Figure1 {
    /// Defaults: ideal 100 µs transits everywhere, 50 µs links,
    /// `MaxDiff` = 2 ms, the trace generator's default prefix pair.
    pub fn ideal() -> Self {
        Figure1 {
            x_transit: ChannelConfig::ideal(SimDuration::from_micros(100)),
            l_transit: ChannelConfig::ideal(SimDuration::from_micros(100)),
            n_transit: ChannelConfig::ideal(SimDuration::from_micros(100)),
            link_delay: SimDuration::from_micros(50),
            max_diff: SimDuration::from_millis(2),
            spec: vpm_trace::TraceConfig::paper_default(1, 0).spec,
            hop_base: 1,
            domain_base: 0,
        }
    }

    /// The `idx`-th independent Figure-1 instance of a fleet: HOPs
    /// `8·idx+1 ..= 8·idx+8`, domains `5·idx ..= 5·idx+4`, and a
    /// per-instance `/24` prefix pair — so every instance's receipts,
    /// keys, and `PathID`s are disjoint from every other's and many
    /// instances can share one transport.
    ///
    /// # Panics
    /// When `idx` would overflow the 16-bit HOP id space
    /// (`idx > 8190`).
    #[expect(
        clippy::expect_used,
        reason = "a /24 prefix is valid for any octet values"
    )]
    pub fn numbered(idx: usize) -> Self {
        assert!(
            (idx as u64 + 1) * FIGURE1_HOPS as u64 <= u16::MAX as u64,
            "fleet index {idx} overflows the HOP id space"
        );
        let (hi, lo) = ((idx >> 8) as u8, idx as u8);
        Figure1 {
            spec: HeaderSpec::new(
                Ipv4Prefix::new(Ipv4Addr::new(10, hi, lo, 0), 24).expect("/24 is valid"),
                Ipv4Prefix::new(Ipv4Addr::new(20, hi, lo, 0), 24).expect("/24 is valid"),
            ),
            hop_base: 1 + idx as u16 * FIGURE1_HOPS,
            domain_base: idx as u16 * FIGURE1_DOMAINS,
            ..Figure1::ideal()
        }
    }

    /// Materialize the topology: S(1) – L(2,3) – X(4,5) – N(6,7) – D(8)
    /// (HOP and domain numbers shifted by `hop_base - 1` and
    /// `domain_base`).
    pub fn build(self) -> Topology {
        let hop = |n: u16| self.hop_base + n - 1;
        let d = |i: u16, name: &str, role, ing: Option<u16>, eg: Option<u16>, ch: ChannelConfig| {
            DomainSpec {
                id: DomainId(self.domain_base + i),
                name: name.to_string(),
                role,
                ingress: ing.map(|n| HopId(hop(n))),
                egress: eg.map(|n| HopId(hop(n))),
                transit: ch,
            }
        };
        let ideal_transit = ChannelConfig::ideal(SimDuration::from_micros(10));
        let domains = vec![
            d(
                0,
                "S",
                DomainRole::Source,
                None,
                Some(1),
                ideal_transit.clone(),
            ),
            d(
                1,
                "L",
                DomainRole::Transit,
                Some(2),
                Some(3),
                self.l_transit,
            ),
            d(
                2,
                "X",
                DomainRole::Transit,
                Some(4),
                Some(5),
                self.x_transit,
            ),
            d(
                3,
                "N",
                DomainRole::Transit,
                Some(6),
                Some(7),
                self.n_transit,
            ),
            d(
                4,
                "D",
                DomainRole::Destination,
                Some(8),
                None,
                ideal_transit,
            ),
        ];
        let link = |up: u16, down: u16| LinkSpec {
            up: HopId(hop(up)),
            down: HopId(hop(down)),
            channel: ChannelConfig::ideal(self.link_delay),
            max_diff: self.max_diff,
        };
        Topology {
            domains,
            links: vec![link(1, 2), link(3, 4), link(5, 6), link(7, 8)],
            spec: self.spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_shape() {
        let t = Figure1::ideal().build();
        assert_eq!(t.domains.len(), 5);
        assert_eq!(t.links.len(), 4);
        assert_eq!(
            t.hops(),
            (1..=8).map(HopId).collect::<Vec<_>>(),
            "HOPs 1..8 in path order"
        );
    }

    #[test]
    fn hop_ownership() {
        let t = Figure1::ideal().build();
        assert_eq!(t.domain_of(HopId(4)).unwrap().name, "X");
        assert_eq!(t.domain_of(HopId(5)).unwrap().name, "X");
        assert_eq!(t.domain_of(HopId(1)).unwrap().name, "S");
        assert!(t.domain_of(HopId(9)).is_none());
    }

    #[test]
    fn every_hop_on_exactly_one_link() {
        let t = Figure1::ideal().build();
        for h in t.hops() {
            let n = t.links.iter().filter(|l| l.up == h || l.down == h).count();
            assert_eq!(n, 1, "{h} on {n} links");
        }
        assert_eq!(t.link_max_diff(HopId(5)), Some(SimDuration::from_millis(2)));
    }

    #[test]
    fn lookup_by_name() {
        let t = Figure1::ideal().build();
        assert_eq!(t.domain_by_name("X").unwrap().id, DomainId(2));
        assert!(t.domain_by_name("Z").is_none());
        assert_eq!(t.domain_ids().len(), 5);
    }

    #[test]
    fn numbered_instances_occupy_disjoint_id_spaces() {
        assert_eq!(
            Figure1::numbered(0).build().hops(),
            Figure1::ideal().build().hops()
        );
        let a = Figure1::numbered(3).build();
        let b = Figure1::numbered(4).build();
        assert_eq!(a.hops(), (25..=32).map(HopId).collect::<Vec<_>>());
        assert_eq!(b.hops(), (33..=40).map(HopId).collect::<Vec<_>>());
        assert_eq!(a.domain_ids(), (15..20).map(DomainId).collect::<Vec<_>>());
        assert_ne!(a.spec, b.spec, "per-instance prefix pairs differ");
        // The shifted chain keeps the Figure-1 shape.
        assert_eq!(a.domain_by_name("X").unwrap().ingress, Some(HopId(28)));
        assert_eq!(a.links.len(), 4);
        for h in a.hops() {
            assert_eq!(
                a.links.iter().filter(|l| l.up == h || l.down == h).count(),
                1,
                "{h}"
            );
        }
    }

    #[test]
    fn hop_path_ids_chain_prev_and_next() {
        let t = Figure1::numbered(2).build();
        let ids = t.hop_path_ids();
        assert_eq!(ids.len(), 8);
        for (pos, (hop, path)) in ids.iter().enumerate() {
            assert_eq!(*hop, t.hops()[pos]);
            assert_eq!(path.spec, t.spec);
            assert_eq!(path.prev_hop, (pos > 0).then(|| t.hops()[pos - 1]));
            assert_eq!(path.next_hop, t.hops().get(pos + 1).copied());
            assert_eq!(path.max_diff, t.link_max_diff(*hop).unwrap());
        }
        // All eight PathIDs are distinct (they disambiguate shards).
        for i in 0..ids.len() {
            for j in i + 1..ids.len() {
                assert_ne!(ids[i].1, ids[j].1, "{i} vs {j}");
            }
        }
    }
}
