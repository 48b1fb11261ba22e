//! The scalable synthetic-campaign specification.
//!
//! A [`ScaleSpec`] describes a matchable KB pair entirely by numbers —
//! every label, attribute value and relationship edge is a pure hash
//! function of `(seed, object, slot)`, so any entity can be recomputed
//! independently without holding the dataset in memory. That property is
//! what lets the generator stream straight to `.rkb` and the test suite
//! spot-check arbitrary entities of a million-object world.

use remp_json::Json;

/// Deterministic splitmix64 finalizer — the mixing primitive behind all
/// generator randomness and the per-shard crowd-seed derivation.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mixes a stream of values into one hash (order-sensitive).
pub fn mix_many(values: &[u64]) -> u64 {
    let mut h = 0x51_7c_c1_b7_27_22_0a_95u64;
    for &v in values {
        h = mix64(h ^ v);
    }
    h
}

/// A uniform f64 in `[0, 1)` derived from a hash.
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Describes a synthetic two-KB entity-resolution campaign at any scale.
///
/// The generated world has `entities` objects per KB. A
/// `match_rate` fraction of KB2's objects are the *same* real-world
/// objects as KB1's first `match_rate * entities` — those are the gold
/// matches; the rest of KB2 is fresh objects unseen in KB1.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleSpec {
    /// Campaign name (becomes the KB names `{name}-1` / `{name}-2`).
    pub name: String,
    /// Master seed; every derived value mixes this in.
    pub seed: u64,
    /// Entities per KB.
    pub entities: usize,
    /// Fraction of KB2 entities that match a KB1 entity (gold pairs).
    pub match_rate: f64,
    /// Mean relationship out-degree (power-law distributed, α ≈ 2.5).
    pub mean_degree: f64,
    /// Number of distinct relationship names.
    pub rels: usize,
    /// Mid-frequency label vocabulary size (0 = auto: `entities / 64`,
    /// floored at 64). Smaller vocabularies mean bigger token blocks.
    pub vocab: usize,
    /// Probability a KB2 label perturbs one token of its KB1 twin.
    pub label_noise: f64,
}

impl ScaleSpec {
    /// A named spec at `entities` scale with defaults everywhere else.
    pub fn new(name: impl Into<String>, entities: usize) -> ScaleSpec {
        ScaleSpec {
            name: name.into(),
            seed: 42,
            entities,
            match_rate: 0.6,
            mean_degree: 4.0,
            rels: 3,
            vocab: 0,
            label_noise: 0.2,
        }
    }

    /// The effective mid-frequency vocabulary size.
    pub fn effective_vocab(&self) -> usize {
        if self.vocab > 0 {
            self.vocab
        } else {
            (self.entities / 64).max(64)
        }
    }

    /// Number of shared (gold-matched) objects.
    pub fn shared_objects(&self) -> usize {
        ((self.entities as f64) * self.match_rate).round() as usize
    }

    /// Basic sanity checks; returns a message on the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.entities == 0 {
            return Err("entities must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.match_rate) {
            return Err("match_rate must be in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.label_noise) {
            return Err("label_noise must be in [0, 1]".into());
        }
        if self.mean_degree < 0.0 {
            return Err("mean_degree must be non-negative".into());
        }
        if self.rels == 0 {
            return Err("rels must be positive".into());
        }
        Ok(())
    }

    /// Serializes the spec (stored in the campaign manifest).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("seed".into(), Json::from(self.seed)),
            ("entities".into(), Json::from(self.entities)),
            ("match_rate".into(), Json::from(self.match_rate)),
            ("mean_degree".into(), Json::from(self.mean_degree)),
            ("rels".into(), Json::from(self.rels)),
            ("vocab".into(), Json::from(self.vocab)),
            ("label_noise".into(), Json::from(self.label_noise)),
        ])
    }

    /// Deserializes a spec from manifest JSON.
    pub fn from_json(doc: &Json) -> Result<ScaleSpec, String> {
        let spec = ScaleSpec {
            name: doc.field("name")?,
            seed: doc.field("seed")?,
            entities: doc.field("entities")?,
            match_rate: doc.field("match_rate")?,
            mean_degree: doc.field("mean_degree")?,
            rels: doc.field("rels")?,
            vocab: doc.field("vocab")?,
            label_noise: doc.field("label_noise")?,
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        let u = unit_f64(mix64(7));
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScaleSpec::new("demo", 1000);
        let back = ScaleSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validation_rejects_bad_rates() {
        let mut spec = ScaleSpec::new("demo", 10);
        spec.match_rate = 1.5;
        assert!(spec.validate().is_err());
        spec.match_rate = 0.5;
        spec.entities = 0;
        assert!(spec.validate().is_err());
    }
}
