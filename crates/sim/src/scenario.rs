//! Scenario model: who the virtual workers are, how they behave, and
//! what campaign they run — plus the JSON file format and the built-in
//! named presets.
//!
//! A scenario is pure data; [`crate::run_scenario`] turns it into a
//! run. Time is measured in **ticks** (one tick = one millisecond of
//! the lease clock), so `lease_ticks` and per-cohort latency live on
//! the same axis the [`CampaignEngine`](remp_serve::CampaignEngine)
//! prunes leases on.

use remp_json::{FieldError, FromJson, Json};
use remp_serve::CrowdPolicy;

use crate::SimError;

/// How a cohort of workers answers questions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Behavior {
    /// Answers correctly with a hidden per-worker quality drawn
    /// uniformly from `[min_quality, max_quality]` at build time —
    /// exactly the [`WireCrowd`](remp_serve::WireCrowd) worker model.
    /// `drift_per_tick` is added to the quality every tick (clamped to
    /// `[0.02, 0.98]`), modelling fatigue or learning.
    Honest {
        /// Lower quality bound.
        min_quality: f64,
        /// Upper quality bound.
        max_quality: f64,
        /// Additive per-tick quality drift.
        drift_per_tick: f64,
    },
    /// Answers yes/no by a fair coin flip — a random spammer.
    Coin,
    /// Always answers "match" — the classic lazy-approver spammer.
    AlwaysYes,
    /// Always answers "no match".
    AlwaysNo,
    /// Always answers the *opposite* of the hidden truth — a
    /// coordinated wrong-answer clique (every colluder pushes the same
    /// wrong label, the worst case for majority aggregation).
    Colluder,
}

impl Behavior {
    /// The wire code of this behavior (scenario files, reports).
    pub fn code(&self) -> &'static str {
        match self {
            Behavior::Honest { .. } => "honest",
            Behavior::Coin => "coin",
            Behavior::AlwaysYes => "always_yes",
            Behavior::AlwaysNo => "always_no",
            Behavior::Colluder => "colluder",
        }
    }

    /// Whether this cohort plays by the worker-accuracy model.
    pub fn is_honest(&self) -> bool {
        matches!(self, Behavior::Honest { .. })
    }
}

/// A group of workers sharing a behavior and a schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Cohort {
    /// Name prefix; worker `i` of the whole pool is `{name}{i}`, so a
    /// single-cohort scenario named `w` yields `w0, w1, ...` — the
    /// exact names [`WireCrowd`](remp_serve::WireCrowd) uses.
    pub name: String,
    /// Number of workers.
    pub count: usize,
    /// How they answer.
    pub behavior: Behavior,
    /// Tick the first worker arrives.
    pub arrive_tick: u64,
    /// Worker `i` of the cohort arrives at `arrive_tick + i * stagger`.
    pub arrive_stagger: u64,
    /// Tick the whole cohort walks away (pending answers are dropped,
    /// their leases expire on schedule); `None` = stays forever.
    pub leave_tick: Option<u64>,
    /// Inclusive `[lo, hi]` range of ticks between accepting a lease
    /// and delivering the answer. `[0, 0]` answers instantly.
    pub latency: (u64, u64),
}

impl Cohort {
    /// An always-on cohort with zero latency.
    pub fn instant(name: &str, count: usize, behavior: Behavior) -> Cohort {
        Cohort {
            name: name.into(),
            count,
            behavior,
            arrive_tick: 0,
            arrive_stagger: 0,
            leave_tick: None,
            latency: (0, 0),
        }
    }
}

/// One complete simulation setup: the campaign plus its crowd.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports, trace).
    pub name: String,
    /// Dataset preset the campaign runs on (`TINY`, `IIMB`, ...).
    pub dataset: String,
    /// Dataset scale factor.
    pub scale: f64,
    /// Master seed: worker qualities, pick order, answer draws and
    /// latencies all come from one `StdRng` seeded with this.
    pub seed: u64,
    /// Optional question budget (`RempConfig::with_budget`).
    pub budget: Option<usize>,
    /// Optional per-loop question count (`RempConfig::with_mu`).
    pub mu: Option<usize>,
    /// Distinct workers required per question.
    pub per_question: usize,
    /// Qualification quality new workers start at.
    pub qualification: f64,
    /// Pseudo-count weight of the qualification in the estimate.
    pub quality_weight: f64,
    /// Lease lifetime in ticks; an answer arriving `lease_ticks` or
    /// more after its lease was granted is rejected and the question
    /// re-issued.
    pub lease_ticks: u64,
    /// Hard stop: the run reports `complete = false` past this.
    pub max_ticks: u64,
    /// The crowd.
    pub cohorts: Vec<Cohort>,
}

impl Scenario {
    /// The engine policy this scenario induces (ticks are lease-clock
    /// milliseconds).
    pub fn policy(&self) -> CrowdPolicy {
        CrowdPolicy {
            per_question: self.per_question,
            qualification: self.qualification,
            quality_weight: self.quality_weight,
            lease_ms: self.lease_ticks,
        }
    }

    /// Total pool size across cohorts.
    pub fn pool_size(&self) -> usize {
        self.cohorts.iter().map(|c| c.count).sum()
    }

    /// Structural validation; every error names the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::BadScenario(msg));
        if self.name.is_empty() {
            return bad("scenario name must be non-empty".into());
        }
        if !(self.scale.is_finite() && self.scale > 0.0) {
            return bad(format!("scale {} must be positive", self.scale));
        }
        if self.per_question == 0 {
            return bad("per_question must be at least 1".into());
        }
        if self.lease_ticks == 0 {
            return bad("lease_ticks must be at least 1".into());
        }
        if self.max_ticks == 0 {
            return bad("max_ticks must be at least 1".into());
        }
        self.policy().validate().map_err(|e| SimError::BadScenario(e.to_string()))?;
        if self.cohorts.is_empty() {
            return bad("a scenario needs at least one cohort".into());
        }
        if self.pool_size() < self.per_question {
            return bad(format!(
                "{} workers cannot give {} distinct answers per question",
                self.pool_size(),
                self.per_question
            ));
        }
        for c in &self.cohorts {
            let ctx = format!("cohort {:?}", c.name);
            if c.name.is_empty() {
                return bad("cohort names must be non-empty".into());
            }
            if c.count == 0 {
                return bad(format!("{ctx}: count must be at least 1"));
            }
            if c.latency.0 > c.latency.1 {
                return bad(format!(
                    "{ctx}: latency [{}, {}] is inverted",
                    c.latency.0, c.latency.1
                ));
            }
            if c.latency.1 >= self.lease_ticks {
                return bad(format!(
                    "{ctx}: max latency {} must be below lease_ticks {} or no answer ever lands",
                    c.latency.1, self.lease_ticks
                ));
            }
            if let Some(leave) = c.leave_tick {
                let last_arrival = c.arrive_tick + (c.count as u64 - 1) * c.arrive_stagger;
                if leave <= last_arrival {
                    return bad(format!(
                        "{ctx}: leave_tick {leave} precedes its last arrival at {last_arrival}"
                    ));
                }
            }
            if let Behavior::Honest { min_quality, max_quality, drift_per_tick } = c.behavior {
                if !((0.0..=1.0).contains(&min_quality)
                    && (0.0..=1.0).contains(&max_quality)
                    && min_quality <= max_quality)
                {
                    return bad(format!(
                        "{ctx}: qualities are probabilities; got [{min_quality}, {max_quality}]"
                    ));
                }
                if !(drift_per_tick.is_finite() && drift_per_tick.abs() < 1.0) {
                    return bad(format!("{ctx}: drift_per_tick {drift_per_tick} is not sane"));
                }
            }
        }
        let mut names: Vec<&str> = self.cohorts.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.cohorts.len() {
            return bad("cohort names must be distinct".into());
        }
        Ok(())
    }

    // ---- JSON -----------------------------------------------------------

    /// The scenario-file form (see `SCENARIOS.md`).
    pub fn to_json(&self) -> Json {
        let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
        Json::Obj(vec![
            ("name".into(), Json::from(self.name.as_str())),
            ("dataset".into(), Json::from(self.dataset.as_str())),
            ("scale".into(), Json::from(self.scale)),
            ("seed".into(), Json::from(self.seed)),
            ("budget".into(), opt(self.budget)),
            ("mu".into(), opt(self.mu)),
            ("per_question".into(), Json::from(self.per_question)),
            ("qualification".into(), Json::from(self.qualification)),
            ("quality_weight".into(), Json::from(self.quality_weight)),
            ("lease_ticks".into(), Json::from(self.lease_ticks)),
            ("max_ticks".into(), Json::from(self.max_ticks)),
            ("cohorts".into(), Json::Arr(self.cohorts.iter().map(cohort_json).collect())),
        ])
    }

    /// Parses a scenario file; unknown behaviors, missing required
    /// fields and mistyped fields are errors, an absent (or `null`)
    /// optional field has the documented default.
    pub fn from_json(doc: &Json) -> Result<Scenario, SimError> {
        let scenario = Scenario {
            name: doc.field("name")?,
            dataset: doc.opt_field("dataset")?.unwrap_or_else(|| "TINY".to_owned()),
            scale: doc.opt_field("scale")?.unwrap_or(1.0),
            seed: doc.opt_field("seed")?.unwrap_or(0),
            budget: doc.opt_field("budget")?,
            mu: doc.opt_field("mu")?,
            per_question: doc.opt_field("per_question")?.unwrap_or(5),
            qualification: doc.opt_field("qualification")?.unwrap_or(0.85),
            quality_weight: doc.opt_field("quality_weight")?.unwrap_or(5.0),
            lease_ticks: doc.opt_field("lease_ticks")?.unwrap_or(50),
            max_ticks: doc.opt_field("max_ticks")?.unwrap_or(100_000),
            cohorts: doc.field("cohorts")?,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Parses a scenario from file text.
    pub fn parse(text: &str) -> Result<Scenario, SimError> {
        let doc = Json::parse(text)
            .map_err(|e| SimError::BadScenario(format!("scenario is not JSON: {e}")))?;
        Scenario::from_json(&doc)
    }
}

fn cohort_json(c: &Cohort) -> Json {
    let mut fields = vec![
        ("name".into(), Json::from(c.name.as_str())),
        ("count".into(), Json::from(c.count)),
        ("behavior".into(), Json::from(c.behavior.code())),
    ];
    if let Behavior::Honest { min_quality, max_quality, drift_per_tick } = c.behavior {
        fields.push(("min_quality".into(), Json::from(min_quality)));
        fields.push(("max_quality".into(), Json::from(max_quality)));
        fields.push(("drift_per_tick".into(), Json::from(drift_per_tick)));
    }
    fields.push(("arrive_tick".into(), Json::from(c.arrive_tick)));
    fields.push(("arrive_stagger".into(), Json::from(c.arrive_stagger)));
    fields.push(("leave_tick".into(), c.leave_tick.map_or(Json::Null, Json::from)));
    fields.push((
        "latency".into(),
        Json::Arr(vec![Json::from(c.latency.0), Json::from(c.latency.1)]),
    ));
    Json::Obj(fields)
}

impl FromJson<'_> for Cohort {
    fn decode(doc: &Json) -> Result<Cohort, FieldError> {
        let behavior = match doc.opt_field("behavior")? {
            Some("honest") | None => Behavior::Honest {
                min_quality: doc.opt_field("min_quality")?.unwrap_or(0.8),
                max_quality: doc.opt_field("max_quality")?.unwrap_or(0.99),
                drift_per_tick: doc.opt_field("drift_per_tick")?.unwrap_or(0.0),
            },
            Some("coin") => Behavior::Coin,
            Some("always_yes") => Behavior::AlwaysYes,
            Some("always_no") => Behavior::AlwaysNo,
            Some("colluder") => Behavior::Colluder,
            Some(_) => {
                return Err(FieldError::Invalid {
                    field: "behavior".into(),
                    expected: "one of honest, coin, always_yes, always_no, colluder",
                })
            }
        };
        Ok(Cohort {
            name: doc.field("name")?,
            count: doc.field("count")?,
            behavior,
            arrive_tick: doc.opt_field("arrive_tick")?.unwrap_or(0),
            arrive_stagger: doc.opt_field("arrive_stagger")?.unwrap_or(0),
            leave_tick: doc.opt_field("leave_tick")?,
            latency: doc.opt_field("latency")?.unwrap_or((0, 0)),
        })
    }
}

// ---- presets ----------------------------------------------------------

/// Names of the built-in scenario presets, in `rempctl simulate --list`
/// order.
pub fn preset_names() -> &'static [&'static str] {
    &["honest", "spam-flood", "churn-storm", "colluders", "drift"]
}

/// A built-in preset by name, parameterized only by the seed.
///
/// `honest` is special: it reproduces the exact worker pool and RNG
/// stream of [`WireCrowd`](remp_serve::WireCrowd) under
/// `CrowdParams::paper_default(seed)`, which is what makes the
/// reference-equivalence test possible.
pub fn preset(name: &str, seed: u64) -> Option<Scenario> {
    let base = Scenario {
        name: name.to_owned(),
        dataset: "TINY".into(),
        scale: 1.0,
        seed,
        budget: None,
        mu: None,
        per_question: 5,
        qualification: 0.85,
        quality_weight: 5.0,
        lease_ticks: 50,
        max_ticks: 5_000,
        cohorts: Vec::new(),
    };
    let honest = |min: f64, max: f64| Behavior::Honest {
        min_quality: min,
        max_quality: max,
        drift_per_tick: 0.0,
    };
    let with_latency = |mut c: Cohort, lo: u64, hi: u64| {
        c.latency = (lo, hi);
        c
    };
    match name {
        // The paper-default pool: 100 honest workers, qualities in
        // [0.8, 0.99], instant answers. Must stay bit-identical to
        // `reference_outcome(..., CrowdParams::paper_default(seed))`.
        "honest" => {
            Some(Scenario { cohorts: vec![Cohort::instant("w", 100, honest(0.8, 0.99))], ..base })
        }
        // A third of the crowd answers by coin flip.
        "spam-flood" => Some(Scenario {
            cohorts: vec![
                with_latency(Cohort::instant("w", 18, honest(0.8, 0.99)), 0, 2),
                with_latency(Cohort::instant("spam", 9, Behavior::Coin), 0, 1),
            ],
            ..base
        }),
        // Half the workforce walks out mid-campaign with answers still
        // in flight; replacements trickle in around the handover.
        // Short leases make the abandoned slots expire and re-issue.
        "churn-storm" => Some(Scenario {
            lease_ticks: 8,
            cohorts: vec![
                Cohort {
                    name: "early".into(),
                    count: 6,
                    behavior: honest(0.8, 0.99),
                    arrive_tick: 0,
                    arrive_stagger: 0,
                    leave_tick: Some(12),
                    latency: (1, 4),
                },
                Cohort {
                    name: "late".into(),
                    count: 6,
                    behavior: honest(0.8, 0.99),
                    arrive_tick: 10,
                    arrive_stagger: 1,
                    leave_tick: None,
                    latency: (1, 4),
                },
            ],
            ..base
        }),
        // A coordinated clique always pushes the wrong label.
        "colluders" => Some(Scenario {
            cohorts: vec![
                with_latency(Cohort::instant("w", 15, honest(0.8, 0.99)), 0, 1),
                with_latency(Cohort::instant("clique", 5, Behavior::Colluder), 0, 1),
            ],
            ..base
        }),
        // A small pool starts sharp and fatigues: quality decays every
        // tick, so the campaign's tail is answered by worse workers
        // than its head. The pool is small and slow on purpose — the
        // run has to last long enough for the decay to matter.
        "drift" => Some(Scenario {
            cohorts: vec![with_latency(
                Cohort::instant(
                    "w",
                    6,
                    Behavior::Honest {
                        min_quality: 0.9,
                        max_quality: 0.99,
                        drift_per_tick: -0.005,
                    },
                ),
                2,
                5,
            )],
            ..base
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_round_trip_through_json() {
        for name in preset_names() {
            let s = preset(name, 42).unwrap_or_else(|| panic!("preset {name}"));
            s.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            let back = Scenario::from_json(&s.to_json()).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(back, s, "{name} must survive a JSON round trip");
        }
        assert!(preset("nope", 0).is_none());
    }

    #[test]
    fn validation_rejects_the_sharp_edges() {
        let mut s = preset("honest", 0).unwrap();
        s.per_question = 0;
        assert!(s.validate().is_err());

        let mut s = preset("honest", 0).unwrap();
        s.cohorts[0].count = 3; // fewer workers than per_question
        assert!(s.validate().is_err());

        let mut s = preset("honest", 0).unwrap();
        s.cohorts[0].latency = (50, 50); // latency >= lease: answers never land
        assert!(s.validate().is_err());

        let mut s = preset("honest", 0).unwrap();
        s.cohorts[0].leave_tick = Some(0); // leaves before arriving
        assert!(s.validate().is_err());

        let mut s = preset("honest", 0).unwrap();
        s.cohorts.push(s.cohorts[0].clone()); // duplicate cohort name
        assert!(s.validate().is_err());

        assert!(Scenario::parse("{\"name\": \"x\"}").is_err(), "cohorts are required");
        assert!(Scenario::parse("not json").is_err());

        // Mistyped fields are errors naming the field, never defaults.
        let file = |top: &str, cohort: &str| {
            format!(r#"{{"name": "x", {top} "cohorts": [{{"name": "w", "count": 10 {cohort}}}]}}"#)
        };
        for (text, field) in [
            (file(r#""budget": "100","#, ""), "budget"),
            (file(r#""per_question": "5","#, ""), "per_question"),
            (file(r#""seed": -3,"#, ""), "seed"),
            (file("", r#", "min_quality": "0.9""#), "cohorts[0].min_quality"),
            (file("", r#", "behavior": 3"#), "cohorts[0].behavior"),
            (file("", r#", "latency": [1]"#), "cohorts[0].latency"),
        ] {
            let err = Scenario::parse(&text).unwrap_err();
            let SimError::BadScenario(msg) = &err else { panic!("{text}: {err}") };
            assert!(msg.contains(&format!("'{field}'")), "{text}: {msg}");
        }
        assert!(Scenario::parse(&file("", "")).is_ok(), "the template itself is valid");
    }

    #[test]
    fn scenario_files_fill_defaults() {
        let s = Scenario::parse(r#"{"name": "minimal", "cohorts": [{"name": "w", "count": 10}]}"#)
            .unwrap();
        assert_eq!(s.dataset, "TINY");
        assert_eq!(s.per_question, 5);
        assert_eq!(s.lease_ticks, 50);
        assert!(matches!(s.cohorts[0].behavior, Behavior::Honest { .. }));
        assert_eq!(s.cohorts[0].latency, (0, 0));
    }
}
