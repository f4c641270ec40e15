//! Configuration of the ITSPQ search.

use indoor_time::{Velocity, WALKING_SPEED};
use serde::{Deserialize, Serialize};

/// How Algorithm 1 expands partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExpandPolicy {
    /// The paper's Algorithm 1 as written: each partition is expanded only
    /// from the first door that settles into it (lines 18–19), and a door
    /// entering the target partition only relaxes `pt` (lines 20–24).
    PaperPruned,
    /// Textbook Dijkstra over the door graph: every settled door expands all
    /// its enterable partitions and doors may be re-relaxed until settled.
    /// Guaranteed to find the shortest valid path under the paper's
    /// no-waiting, earliest-arrival check semantics.
    FullRelax,
}

/// How the asynchronous check (Algorithm 4) treats the relaxation that
/// triggers a graph refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsynMode {
    /// The paper's Algorithm 4: refresh the reduced graph and return `false`,
    /// dropping the triggering relaxation even if the door is open in the new
    /// interval.
    Faithful,
    /// Resolve every relaxation against the reduced graph of its *own*
    /// arrival interval (the engine's per-interval view). Equivalent to
    /// `Syn_Check` door-by-door, so ITG/A(Exact) always matches ITG/S —
    /// unlike `Faithful`, whose single advancing cursor can judge a
    /// relaxation against the wrong interval (see the `arrive_too_early`
    /// integration tests).
    Exact,
}

/// Tunables of the ITSPQ engines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ItspqConfig {
    /// Walking speed used to turn distances into arrival times (paper: 5 km/h).
    pub velocity: Velocity,
    /// Partition-expansion policy of Algorithm 1.
    pub expand: ExpandPolicy,
    /// Refresh semantics of Algorithm 4 (ITG/A only).
    pub asyn_mode: AsynMode,
}

impl Default for ItspqConfig {
    fn default() -> Self {
        ItspqConfig {
            velocity: WALKING_SPEED,
            expand: ExpandPolicy::PaperPruned,
            asyn_mode: AsynMode::Faithful,
        }
    }
}

impl ItspqConfig {
    /// The default configuration with [`ExpandPolicy::FullRelax`].
    #[must_use]
    pub fn full_relax() -> Self {
        ItspqConfig {
            expand: ExpandPolicy::FullRelax,
            ..Self::default()
        }
    }

    /// Returns a copy with the given velocity.
    #[must_use]
    pub fn with_velocity(mut self, velocity: Velocity) -> Self {
        self.velocity = velocity;
        self
    }

    /// Returns a copy with the given expansion policy.
    #[must_use]
    pub fn with_expand(mut self, expand: ExpandPolicy) -> Self {
        self.expand = expand;
        self
    }

    /// Returns a copy with the given asynchronous-check mode.
    #[must_use]
    pub fn with_asyn_mode(mut self, mode: AsynMode) -> Self {
        self.asyn_mode = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ItspqConfig::default();
        assert!((c.velocity.kmh() - 5.0).abs() < 1e-9);
        assert_eq!(c.expand, ExpandPolicy::PaperPruned);
        assert_eq!(c.asyn_mode, AsynMode::Faithful);
    }

    #[test]
    fn builder_style_updates() {
        let c = ItspqConfig::full_relax()
            .with_asyn_mode(AsynMode::Exact)
            .with_velocity(Velocity::from_kmh(3.6).unwrap());
        assert_eq!(c.expand, ExpandPolicy::FullRelax);
        assert_eq!(c.asyn_mode, AsynMode::Exact);
        assert!((c.velocity.mps() - 1.0).abs() < 1e-12);
    }
}
