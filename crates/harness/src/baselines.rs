//! Named prefetcher configurations used across the evaluation.

use streamline_core::{Streamline, StreamlineConfig};
use tpprefetch::{Berti, Bingo, IpStride, Ipcp, SppPpf};
use tpsim::{AccessPrefetcher, TemporalPrefetcher};
use triage::{Triage, TriageConfig};
use triangel::{Triangel, TriangelConfig};

/// L1D prefetcher choices (paper baseline: stride; Figure 11a/b: Berti).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1Kind {
    /// No L1 prefetcher.
    None,
    /// PC-localised IP-stride, degree 3 (Table II baseline).
    Stride,
    /// Berti local-delta prefetcher.
    Berti,
}

impl L1Kind {
    /// Builds the prefetcher, if any.
    pub fn build(self) -> Option<Box<dyn AccessPrefetcher>> {
        match self {
            L1Kind::None => None,
            L1Kind::Stride => Some(Box::new(IpStride::new())),
            L1Kind::Berti => Some(Box::new(Berti::new())),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            L1Kind::None => "none",
            L1Kind::Stride => "stride",
            L1Kind::Berti => "berti",
        }
    }

    /// Every kind, in declaration order.
    pub const ALL: [L1Kind; 3] = [L1Kind::None, L1Kind::Stride, L1Kind::Berti];

    /// The inverse of [`L1Kind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Regular L2 prefetcher choices (Figure 11c/d).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L2Kind {
    /// No regular L2 prefetcher.
    None,
    /// IPCP (ISCA 2020).
    Ipcp,
    /// Bingo (HPCA 2019).
    Bingo,
    /// SPP-PPF (MICRO 2016 / ISCA 2019).
    SppPpf,
}

impl L2Kind {
    /// Builds the prefetcher, if any.
    pub fn build(self) -> Option<Box<dyn AccessPrefetcher>> {
        match self {
            L2Kind::None => None,
            L2Kind::Ipcp => Some(Box::new(Ipcp::new())),
            L2Kind::Bingo => Some(Box::new(Bingo::new())),
            L2Kind::SppPpf => Some(Box::new(SppPpf::new())),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            L2Kind::None => "none",
            L2Kind::Ipcp => "ipcp",
            L2Kind::Bingo => "bingo",
            L2Kind::SppPpf => "spp-ppf",
        }
    }

    /// Every kind, in declaration order.
    pub const ALL: [L2Kind; 4] = [L2Kind::None, L2Kind::Ipcp, L2Kind::Bingo, L2Kind::SppPpf];

    /// The inverse of [`L2Kind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Temporal prefetcher choices.
#[derive(Clone, Copy, Debug)]
pub enum TemporalKind {
    /// No temporal prefetcher.
    None,
    /// Triage (MICRO 2019).
    Triage,
    /// Triangel (ISCA 2024), dynamic partitioning.
    Triangel,
    /// Triangel pinned to a fixed way count (size sweeps).
    TriangelFixed(u8),
    /// Triangel-Ideal: dedicated 1 MB store outside the LLC.
    TriangelIdeal,
    /// Streamline with the paper's default configuration.
    Streamline,
    /// Streamline with a custom configuration (ablations, sweeps).
    StreamlineCfg(StreamlineConfig),
}

impl TemporalKind {
    /// Builds the prefetcher, if any.
    pub fn build(self) -> Option<Box<dyn TemporalPrefetcher>> {
        match self {
            TemporalKind::None => None,
            TemporalKind::Triage => Some(Box::new(Triage::with_config(TriageConfig::default()))),
            TemporalKind::Triangel => Some(Box::new(Triangel::new())),
            TemporalKind::TriangelFixed(ways) => {
                Some(Box::new(Triangel::with_config(TriangelConfig {
                    fixed_ways: Some(ways),
                    ..TriangelConfig::default()
                })))
            }
            TemporalKind::TriangelIdeal => Some(Box::new(Triangel::ideal())),
            TemporalKind::Streamline => Some(Box::new(Streamline::new())),
            TemporalKind::StreamlineCfg(cfg) => Some(Box::new(Streamline::with_config(cfg))),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TemporalKind::None => "none",
            TemporalKind::Triage => "triage",
            TemporalKind::Triangel => "triangel",
            TemporalKind::TriangelFixed(_) => "triangel-fixed",
            TemporalKind::TriangelIdeal => "triangel-ideal",
            TemporalKind::Streamline => "streamline",
            TemporalKind::StreamlineCfg(_) => "streamline-cfg",
        }
    }

    /// Every parameterless kind — the ones a name alone identifies, and
    /// so the only ones a CLI flag or the service protocol can carry.
    pub const NAMED: [TemporalKind; 5] = [
        TemporalKind::None,
        TemporalKind::Triage,
        TemporalKind::Triangel,
        TemporalKind::TriangelIdeal,
        TemporalKind::Streamline,
    ];

    /// The inverse of [`TemporalKind::name`] over [`TemporalKind::NAMED`]:
    /// `"triangel-fixed"` and `"streamline-cfg"` name a family, not a
    /// configuration, and are `None`.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::NAMED.into_iter().find(|k| k.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_named_prefetchers() {
        assert!(L1Kind::None.build().is_none());
        assert_eq!(L1Kind::Stride.build().unwrap().name(), "ip-stride");
        assert_eq!(L1Kind::Berti.build().unwrap().name(), "berti");
        assert_eq!(L2Kind::Ipcp.build().unwrap().name(), "ipcp");
        assert_eq!(L2Kind::Bingo.build().unwrap().name(), "bingo");
        assert_eq!(L2Kind::SppPpf.build().unwrap().name(), "spp-ppf");
        assert_eq!(TemporalKind::Triage.build().unwrap().name(), "triage");
        assert_eq!(TemporalKind::Triangel.build().unwrap().name(), "triangel");
        assert_eq!(
            TemporalKind::TriangelIdeal.build().unwrap().name(),
            "triangel-ideal"
        );
        assert_eq!(
            TemporalKind::Streamline.build().unwrap().name(),
            "streamline"
        );
        assert!(TemporalKind::None.build().is_none());
    }

    #[test]
    fn from_name_inverts_name_for_every_parameterless_kind() {
        for k in L1Kind::ALL {
            assert_eq!(L1Kind::from_name(k.name()), Some(k));
        }
        for k in L2Kind::ALL {
            assert_eq!(L2Kind::from_name(k.name()), Some(k));
        }
        for k in TemporalKind::NAMED {
            let back = TemporalKind::from_name(k.name()).expect("a named kind");
            assert_eq!(format!("{back:?}"), format!("{k:?}"));
        }
        for family in [
            TemporalKind::TriangelFixed(4).name(),
            TemporalKind::StreamlineCfg(StreamlineConfig::default()).name(),
            "ideal",
            "magic",
        ] {
            assert!(TemporalKind::from_name(family).is_none(), "{family}");
        }
        assert!(L1Kind::from_name("magic").is_none() && L2Kind::from_name("magic").is_none());
    }
}
