//! Declarative workload specs: the JSON wire format for scenarios and
//! sessions.
//!
//! A scenario or session can be defined in a plain JSON file and loaded
//! with [`scenario_from_str`] / [`session_from_str`] — the text-file
//! face of the scenario composition engine. The **single-validation-path
//! invariant** is load-bearing: the loader never constructs a
//! [`ScenarioSpec`] directly. Every decoded scenario is replayed
//! through [`ScenarioBuilder`], so a spec file with a dependency cycle,
//! an unknown upstream, an out-of-range rate, or a bad trigger
//! probability fails with *exactly* the diagnostic the builder gives
//! code — and a spec file that loads is valid by the same definition a
//! programmatic scenario is.
//!
//! ## Scenario schema
//!
//! ```json
//! {
//!   "name": "AR Co-pilot",
//!   "description": "Hands + voice assistant",
//!   "models": [
//!     { "model": "HT", "target_fps": 30.0 },
//!     { "model": "KD", "target_fps": 3.0 },
//!     { "model": "SR", "target_fps": 3.0,
//!       "deps": [ { "upstream": "KD", "kind": "control",
//!                   "trigger_probability": 0.8 } ] }
//!   ]
//! }
//! ```
//!
//! Models are named by their Table 1 abbreviation (`"HT"`) or full task
//! name (`"Hand Tracking"`), case-insensitively. Dependency `kind` is
//! `"data"` or `"control"`; `trigger_probability` defaults to `1.0`.
//!
//! ## Session schema
//!
//! ```json
//! {
//!   "name": "vr-party",
//!   "scenarios": [ /* optional local scenario definitions */ ],
//!   "users": [
//!     { "scenario": "VR Gaming", "start_offset_s": 0.0 },
//!     { "scenario": "AR Gaming", "start_offset_s": 0.05 }
//!   ]
//! }
//! ```
//!
//! Instead of an explicit `users` array, a session may use the
//! `"uniform"` shorthand (`{"scenario", "users", "stagger_s"}`) or
//! `"mixed"` (`{"scenarios": [..], "users", "stagger_s"}`) — the same
//! constructors [`SessionSpec::uniform`] / [`SessionSpec::mixed`]
//! expose in code. Scenario names resolve against a caller-provided
//! [`ScenarioCatalog`] (typically the built-ins) extended by the file's
//! local `scenarios` definitions.

use std::fmt;

use serde::de::{Cursor, DeError};
use serde::json::JsonValue;
use serde::Serialize;

use xrbench_models::ModelId;

use crate::builder::{ScenarioBuildError, ScenarioBuilder};
use crate::catalog::{CatalogError, ScenarioCatalog};
use crate::scenario::{DependencyKind, ScenarioSpec};
use crate::session::SessionSpec;

/// Why a spec file failed to load.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The document is not syntactically valid JSON.
    Json(String),
    /// The document parsed but has the wrong shape (message carries
    /// the JSON path).
    Decode(DeError),
    /// The decoded scenario failed [`ScenarioBuilder`] validation —
    /// the same diagnostics a programmatic scenario gets.
    Build(ScenarioBuildError),
    /// A model name that is neither a Table 1 abbreviation nor a full
    /// task name.
    UnknownModel {
        /// JSON path of the offending name.
        path: String,
        /// The unrecognized name.
        name: String,
    },
    /// A scenario reference that resolves in neither the catalog nor
    /// the file's local definitions.
    UnknownScenario {
        /// JSON path of the offending reference.
        path: String,
        /// The unresolved scenario name.
        name: String,
        /// The names that were available.
        available: Vec<String>,
    },
    /// A local scenario definition collides with a registered name.
    Catalog(CatalogError),
    /// A structurally valid value that is semantically out of range
    /// (e.g. a negative start offset).
    Invalid {
        /// JSON path of the offending value.
        path: String,
        /// What constraint it violates.
        message: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "invalid JSON: {e}"),
            SpecError::Decode(e) => write!(f, "invalid spec: {e}"),
            SpecError::Build(e) => write!(f, "invalid scenario: {e}"),
            SpecError::UnknownModel { path, name } => {
                write!(f, "invalid spec: {path}: unknown model `{name}` (expected a Table 1 abbreviation like \"HT\" or a task name like \"Hand Tracking\")")
            }
            SpecError::UnknownScenario {
                path,
                name,
                available,
            } => write!(
                f,
                "invalid spec: {path}: unknown scenario `{name}` (available: {})",
                available.join(", ")
            ),
            SpecError::Catalog(e) => write!(f, "invalid spec: {e}"),
            SpecError::Invalid { path, message } => write!(f, "invalid spec: {path}: {message}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<DeError> for SpecError {
    fn from(e: DeError) -> Self {
        SpecError::Decode(e)
    }
}

impl From<ScenarioBuildError> for SpecError {
    fn from(e: ScenarioBuildError) -> Self {
        SpecError::Build(e)
    }
}

impl From<CatalogError> for SpecError {
    fn from(e: CatalogError) -> Self {
        SpecError::Catalog(e)
    }
}

/// Parses a JSON document into a value tree.
///
/// # Errors
///
/// Returns [`SpecError::Json`] on malformed JSON, and
/// [`SpecError::Invalid`] (with the JSON path) for nesting deeper than
/// [`serde_json::MAX_DEPTH`].
pub fn parse_json(text: &str) -> Result<JsonValue, SpecError> {
    serde_json::from_str(text).map_err(|e| match e.depth_path() {
        Some(path) => SpecError::Invalid {
            path: path.to_string(),
            message: e.to_string(),
        },
        None => SpecError::Json(e.to_string()),
    })
}

/// Resolves a model name: Table 1 abbreviation or full task name,
/// case-insensitive.
///
/// # Errors
///
/// Returns [`SpecError::UnknownModel`] (with the JSON path) for names
/// that match neither form.
pub fn model_from_value(cursor: &Cursor<'_>) -> Result<ModelId, SpecError> {
    let name = cursor.as_str()?;
    name.parse::<ModelId>()
        .ok()
        .or_else(|| {
            ModelId::ALL
                .iter()
                .find(|m| m.task_name().eq_ignore_ascii_case(name))
                .copied()
        })
        .ok_or_else(|| SpecError::UnknownModel {
            path: cursor.path().to_string(),
            name: name.to_string(),
        })
}

/// Decodes a dependency kind: `"data"` or `"control"`,
/// case-insensitive.
fn kind_by_name(cursor: &Cursor<'_>) -> Result<DependencyKind, SpecError> {
    let name = cursor.as_str()?;
    if name.eq_ignore_ascii_case("data") {
        Ok(DependencyKind::Data)
    } else if name.eq_ignore_ascii_case("control") {
        Ok(DependencyKind::Control)
    } else {
        Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: format!("unknown dependency kind `{name}` (expected \"data\" or \"control\")"),
        })
    }
}

/// Decodes a scenario from a parsed JSON value, funneling the result
/// through [`ScenarioBuilder`] for validation.
///
/// # Errors
///
/// Returns a [`SpecError`] describing the first problem: wrong shape,
/// unknown model name, or any [`ScenarioBuildError`] the builder
/// raises.
pub fn scenario_from_value(cursor: &Cursor<'_>) -> Result<ScenarioSpec, SpecError> {
    cursor.deny_unknown_fields(&["name", "description", "models"])?;
    let name: String = cursor.get_field("name")?;
    let description: Option<String> = cursor.get_opt_field("description")?;
    let mut builder = ScenarioBuilder::new(name).describe(description.unwrap_or_default());
    for entry in cursor.field("models")?.items()? {
        entry.deny_unknown_fields(&["model", "target_fps", "deps"])?;
        let model = model_from_value(&entry.field("model")?)?;
        let target_fps: f64 = entry.get_field("target_fps")?;
        builder = builder.model(model, target_fps);
        if let Some(deps) = entry.opt_field("deps")? {
            for dep in deps.items()? {
                dep.deny_unknown_fields(&["upstream", "kind", "trigger_probability"])?;
                let upstream = model_from_value(&dep.field("upstream")?)?;
                let kind = kind_by_name(&dep.field("kind")?)?;
                let probability: f64 = dep.get_opt_field("trigger_probability")?.unwrap_or(1.0);
                builder = builder.dependency(model, upstream, kind, probability);
            }
        }
    }
    // The single validation path: every diagnostic (cycles, unknown
    // upstreams, rates, probabilities) comes from the builder.
    Ok(builder.build()?)
}

/// Loads a scenario from JSON text.
///
/// # Errors
///
/// See [`scenario_from_value`]; malformed JSON yields
/// [`SpecError::Json`].
pub fn scenario_from_str(text: &str) -> Result<ScenarioSpec, SpecError> {
    let value = parse_json(text)?;
    scenario_from_value(&Cursor::root(&value))
}

/// The serializable wire form of one scenario-model dependency.
#[derive(Serialize)]
struct DepEntry {
    upstream: String,
    kind: String,
    trigger_probability: f64,
}

/// The serializable wire form of one scenario model.
#[derive(Serialize)]
struct ModelEntry {
    model: String,
    target_fps: f64,
    deps: Vec<DepEntry>,
}

/// The serializable wire form of a scenario.
#[derive(Serialize)]
struct ScenarioFile {
    name: String,
    description: String,
    models: Vec<ModelEntry>,
}

fn scenario_file(spec: &ScenarioSpec) -> ScenarioFile {
    ScenarioFile {
        name: spec.name.clone(),
        description: spec.description.clone(),
        models: spec
            .models
            .iter()
            .map(|m| ModelEntry {
                model: m.model.abbrev().to_string(),
                target_fps: m.target_fps,
                deps: m
                    .deps
                    .iter()
                    .map(|d| DepEntry {
                        upstream: d.upstream.abbrev().to_string(),
                        kind: match d.kind {
                            DependencyKind::Data => "data".to_string(),
                            DependencyKind::Control => "control".to_string(),
                        },
                        trigger_probability: d.trigger_probability,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Serializes a scenario as a pretty-printed spec file (the format
/// [`scenario_from_str`] loads).
pub fn scenario_to_json(spec: &ScenarioSpec) -> String {
    serde_json::to_string_pretty(&scenario_file(spec)).expect("spec serialization cannot fail")
}

/// The serializable wire value of a scenario, for embedding into
/// larger documents (sessions, fleets, run specs).
pub fn scenario_to_value(spec: &ScenarioSpec) -> JsonValue {
    scenario_file(spec).to_json_value()
}

/// Registers a session/fleet file's local `scenarios` definitions on
/// top of `catalog`, returning the extended catalog.
///
/// # Errors
///
/// Propagates decode/build errors from the local definitions and
/// [`CatalogError::DuplicateName`] collisions.
pub fn extend_catalog(
    cursor: &Cursor<'_>,
    catalog: &ScenarioCatalog,
) -> Result<ScenarioCatalog, SpecError> {
    let mut extended = catalog.clone();
    if let Some(defs) = cursor.opt_field("scenarios")? {
        for def in defs.items()? {
            extended.register(scenario_from_value(&def)?)?;
        }
    }
    Ok(extended)
}

/// Resolves a scenario reference by name against a catalog.
fn resolve_scenario(
    cursor: &Cursor<'_>,
    catalog: &ScenarioCatalog,
) -> Result<ScenarioSpec, SpecError> {
    let name = cursor.as_str()?;
    catalog
        .get(name)
        .cloned()
        .ok_or_else(|| SpecError::UnknownScenario {
            path: cursor.path().to_string(),
            name: name.to_string(),
            available: catalog.names().iter().map(|s| s.to_string()).collect(),
        })
}

/// Decodes a finite, non-negative duration-like number.
fn non_negative(cursor: &Cursor<'_>, what: &str) -> Result<f64, SpecError> {
    let v: f64 = cursor.get()?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: format!("{what} must be finite and non-negative, got {v}"),
        })
    }
}

/// Decodes a strictly positive integer.
fn positive_u32(cursor: &Cursor<'_>, what: &str) -> Result<u32, SpecError> {
    let v: u32 = cursor.get()?;
    if v > 0 {
        Ok(v)
    } else {
        Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: format!("{what} must be at least 1"),
        })
    }
}

/// Decodes a session from a parsed JSON value. Scenario references
/// resolve against `catalog` extended by the document's local
/// `scenarios` definitions.
///
/// # Errors
///
/// Returns a [`SpecError`] for shape problems, unresolved scenario
/// names, out-of-range offsets/counts, or any error from embedded
/// scenario definitions.
pub fn session_from_value(
    cursor: &Cursor<'_>,
    catalog: &ScenarioCatalog,
) -> Result<SessionSpec, SpecError> {
    cursor.deny_unknown_fields(&["name", "scenarios", "users", "uniform", "mixed"])?;
    let name: String = cursor.get_field("name")?;
    let catalog = extend_catalog(cursor, catalog)?;

    let users = cursor.opt_field("users")?;
    let uniform = cursor.opt_field("uniform")?;
    let mixed = cursor.opt_field("mixed")?;
    let given = [users.is_some(), uniform.is_some(), mixed.is_some()]
        .iter()
        .filter(|p| **p)
        .count();
    if given != 1 {
        return Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: "exactly one of `users`, `uniform`, or `mixed` is required".to_string(),
        });
    }

    if let Some(users) = users {
        let entries = users.items()?;
        if entries.is_empty() {
            return Err(SpecError::Invalid {
                path: users.path().to_string(),
                message: "session needs at least one user".to_string(),
            });
        }
        let mut session = SessionSpec::new(name);
        for entry in entries {
            entry.deny_unknown_fields(&["scenario", "start_offset_s"])?;
            let spec = resolve_scenario(&entry.field("scenario")?, &catalog)?;
            let offset = match entry.opt_field("start_offset_s")? {
                Some(c) => non_negative(&c, "start offset")?,
                None => 0.0,
            };
            session = session.with_user(spec, offset);
        }
        return Ok(session);
    }

    if let Some(uniform) = uniform {
        uniform.deny_unknown_fields(&["scenario", "users", "stagger_s"])?;
        let spec = resolve_scenario(&uniform.field("scenario")?, &catalog)?;
        let count = positive_u32(&uniform.field("users")?, "users")?;
        let stagger = match uniform.opt_field("stagger_s")? {
            Some(c) => non_negative(&c, "stagger")?,
            None => 0.0,
        };
        return Ok(SessionSpec::uniform(name, spec, count, stagger));
    }

    let mixed = mixed.expect("one of the three forms is present");
    mixed.deny_unknown_fields(&["scenarios", "users", "stagger_s"])?;
    let refs = mixed.field("scenarios")?.items()?;
    if refs.is_empty() {
        return Err(SpecError::Invalid {
            path: mixed.path().to_string(),
            message: "session needs at least one scenario".to_string(),
        });
    }
    let specs = refs
        .iter()
        .map(|r| resolve_scenario(r, &catalog))
        .collect::<Result<Vec<_>, _>>()?;
    let count = positive_u32(&mixed.field("users")?, "users")?;
    let stagger = match mixed.opt_field("stagger_s")? {
        Some(c) => non_negative(&c, "stagger")?,
        None => 0.0,
    };
    Ok(SessionSpec::mixed(name, &specs, count, stagger))
}

/// Loads a session from JSON text (see [`session_from_value`]).
///
/// # Errors
///
/// See [`session_from_value`]; malformed JSON yields
/// [`SpecError::Json`].
pub fn session_from_str(text: &str, catalog: &ScenarioCatalog) -> Result<SessionSpec, SpecError> {
    let value = parse_json(text)?;
    session_from_value(&Cursor::root(&value), catalog)
}

/// The serializable wire value of a session: local definitions for
/// every scenario that is not a byte-identical builtin, plus an
/// explicit per-user list. Loading the result with
/// [`session_from_value`] against the builtin catalog reproduces the
/// session exactly.
///
/// # Panics
///
/// The wire format references scenarios *by name*, so a session is
/// exportable only if names identify content. Panics if two users run
/// different scenarios under the same name, or a non-builtin scenario
/// shadows a builtin name (the export would reload as a different
/// session, or not reload at all).
pub fn session_to_value(session: &SessionSpec) -> JsonValue {
    let builtin = ScenarioCatalog::builtin();
    let mut local: Vec<&ScenarioSpec> = Vec::new();
    for u in &session.users {
        if builtin.get(&u.spec.name) == Some(&u.spec) {
            continue;
        }
        assert!(
            !builtin.contains(&u.spec.name),
            "scenario {:?} shadows a builtin name with different content; \
             rename it to make the session exportable",
            u.spec.name
        );
        match local.iter().find(|s| s.name == u.spec.name) {
            Some(existing) => assert!(
                *existing == &u.spec,
                "two different scenarios share the name {:?}; \
                 rename one to make the session exportable",
                u.spec.name
            ),
            None => local.push(&u.spec),
        }
    }
    let mut obj: Vec<(String, JsonValue)> =
        vec![("name".to_string(), JsonValue::Str(session.name.clone()))];
    if !local.is_empty() {
        obj.push((
            "scenarios".to_string(),
            JsonValue::Array(local.iter().map(|s| scenario_to_value(s)).collect()),
        ));
    }
    obj.push((
        "users".to_string(),
        JsonValue::Array(
            session
                .users
                .iter()
                .map(|u| {
                    JsonValue::Object(vec![
                        ("scenario".to_string(), JsonValue::Str(u.spec.name.clone())),
                        (
                            "start_offset_s".to_string(),
                            JsonValue::Num(u.start_offset_s),
                        ),
                    ])
                })
                .collect(),
        ),
    ));
    JsonValue::Object(obj)
}

/// Serializes a session as a pretty-printed spec file (the format
/// [`session_from_str`] loads).
pub fn session_to_json(session: &SessionSpec) -> String {
    serde_json::to_string_pretty(&session_to_value(session))
        .expect("spec serialization cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::UsageScenario;
    use xrbench_models::ModelId::*;

    #[test]
    fn builtin_scenarios_round_trip_byte_identically() {
        for s in UsageScenario::ALL {
            let spec = s.spec();
            let json = scenario_to_json(&spec);
            let reloaded = scenario_from_str(&json).unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(reloaded, spec, "{s}");
            // Serialization is stable across a round trip.
            assert_eq!(scenario_to_json(&reloaded), json, "{s}");
        }
    }

    #[test]
    fn loads_a_scenario_with_full_task_names_and_default_probability() {
        let spec = scenario_from_str(
            r#"{
                "name": "Co-pilot",
                "models": [
                    { "model": "hand tracking", "target_fps": 30.0 },
                    { "model": "ES", "target_fps": 60.0 },
                    { "model": "GE", "target_fps": 60.0,
                      "deps": [ { "upstream": "Eye Segmentation", "kind": "DATA" } ] }
                ]
            }"#,
        )
        .unwrap();
        assert_eq!(spec.name, "Co-pilot");
        assert_eq!(spec.description, "");
        let ge = spec.model(GazeEstimation).unwrap();
        assert_eq!(ge.deps[0].upstream, EyeSegmentation);
        assert_eq!(ge.deps[0].kind, DependencyKind::Data);
        assert_eq!(ge.deps[0].trigger_probability, 1.0);
    }

    #[test]
    fn malformed_json_is_a_json_error() {
        let err = scenario_from_str("{ not json").unwrap_err();
        assert!(matches!(err, SpecError::Json(_)), "{err}");
        assert!(err.to_string().contains("invalid JSON"), "{err}");
    }

    #[test]
    fn unknown_model_names_are_rejected_with_path() {
        let err = scenario_from_str(
            r#"{ "name": "x", "models": [ { "model": "QQ", "target_fps": 30.0 } ] }"#,
        )
        .unwrap_err();
        match &err {
            SpecError::UnknownModel { path, name } => {
                assert_eq!(name, "QQ");
                assert_eq!(path, "$.models[0].model");
            }
            other => panic!("expected UnknownModel, got {other}"),
        }
    }

    #[test]
    fn builder_diagnostics_surface_verbatim() {
        // Out-of-range rate → the builder's RateExceedsSource message.
        let err = scenario_from_str(
            r#"{ "name": "x", "models": [ { "model": "KD", "target_fps": 10.0 } ] }"#,
        )
        .unwrap_err();
        assert_eq!(
            err,
            SpecError::Build(ScenarioBuildError::RateExceedsSource {
                model: KeywordDetection,
                target_fps: 10.0,
                source_fps: 3.0,
            })
        );

        // Cycle → the builder's DependencyCycle message.
        let err = scenario_from_str(
            r#"{ "name": "x", "models": [
                { "model": "ES", "target_fps": 60.0,
                  "deps": [ { "upstream": "GE", "kind": "data" } ] },
                { "model": "GE", "target_fps": 60.0,
                  "deps": [ { "upstream": "ES", "kind": "data" } ] }
            ] }"#,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Build(ScenarioBuildError::DependencyCycle(_))
            ),
            "{err}"
        );
        assert!(err.to_string().contains("->"), "{err}");

        // Bad probability → the builder's InvalidProbability message.
        let err = scenario_from_str(
            r#"{ "name": "x", "models": [
                { "model": "KD", "target_fps": 3.0 },
                { "model": "SR", "target_fps": 3.0,
                  "deps": [ { "upstream": "KD", "kind": "control",
                              "trigger_probability": 1.5 } ] }
            ] }"#,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Build(ScenarioBuildError::InvalidProbability { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        let err = scenario_from_str(
            r#"{ "name": "x", "modles": [ ] }"#, // typo'd key
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown field `modles`"), "{err}");

        let err = scenario_from_str(
            r#"{ "name": "x", "models": [
                { "model": "ES", "target_fps": 60.0 },
                { "model": "GE", "target_fps": 60.0,
                  "deps": [ { "upstream": "ES", "kind": "causal" } ] }
            ] }"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown dependency kind `causal`"),
            "{err}"
        );
    }

    #[test]
    fn session_explicit_users_resolve_against_catalog() {
        let catalog = ScenarioCatalog::builtin();
        let session = session_from_str(
            r#"{
                "name": "party",
                "users": [
                    { "scenario": "VR Gaming" },
                    { "scenario": "AR Gaming", "start_offset_s": 0.05 }
                ]
            }"#,
            &catalog,
        )
        .unwrap();
        assert_eq!(session.num_users(), 2);
        assert_eq!(session.users[0].spec.name, "VR Gaming");
        assert_eq!(session.users[0].start_offset_s, 0.0);
        assert_eq!(session.users[1].spec.name, "AR Gaming");
        assert_eq!(session.users[1].start_offset_s, 0.05);
    }

    #[test]
    fn session_uniform_and_mixed_match_constructors() {
        let catalog = ScenarioCatalog::builtin();
        let uniform = session_from_str(
            r#"{ "name": "u", "uniform":
                 { "scenario": "VR Gaming", "users": 4, "stagger_s": 0.05 } }"#,
            &catalog,
        )
        .unwrap();
        assert_eq!(
            uniform,
            SessionSpec::uniform("u", UsageScenario::VrGaming.spec(), 4, 0.05)
        );

        let mixed = session_from_str(
            r#"{ "name": "m", "mixed":
                 { "scenarios": ["VR Gaming", "AR Gaming"], "users": 5, "stagger_s": 0.01 } }"#,
            &catalog,
        )
        .unwrap();
        let expected = SessionSpec::mixed(
            "m",
            &[
                UsageScenario::VrGaming.spec(),
                UsageScenario::ArGaming.spec(),
            ],
            5,
            0.01,
        );
        assert_eq!(mixed, expected);
    }

    #[test]
    fn session_local_scenarios_extend_the_catalog() {
        let session = session_from_str(
            r#"{
                "name": "s",
                "scenarios": [
                    { "name": "Fitness", "models": [
                        { "model": "HT", "target_fps": 30.0 } ] }
                ],
                "uniform": { "scenario": "Fitness", "users": 2 }
            }"#,
            &ScenarioCatalog::builtin(),
        )
        .unwrap();
        assert_eq!(session.users[0].spec.name, "Fitness");
    }

    #[test]
    fn session_rejections_never_panic() {
        let catalog = ScenarioCatalog::builtin();
        for (text, needle) in [
            (r#"{ "name": "s" }"#, "exactly one of"),
            (
                r#"{ "name": "s", "users": [], "uniform": {} }"#,
                "exactly one of",
            ),
            (r#"{ "name": "s", "users": [] }"#, "at least one user"),
            (
                r#"{ "name": "s", "users": [ { "scenario": "Nope" } ] }"#,
                "unknown scenario `Nope`",
            ),
            (
                r#"{ "name": "s", "users": [
                     { "scenario": "VR Gaming", "start_offset_s": -1.0 } ] }"#,
                "non-negative",
            ),
            (
                r#"{ "name": "s", "uniform":
                     { "scenario": "VR Gaming", "users": 0 } }"#,
                "at least 1",
            ),
            (
                r#"{ "name": "s", "mixed": { "scenarios": [], "users": 2 } }"#,
                "at least one scenario",
            ),
            (
                r#"{ "name": "s", "scenarios": [
                     { "name": "VR Gaming", "models": [
                       { "model": "HT", "target_fps": 30.0 } ] } ],
                     "uniform": { "scenario": "VR Gaming", "users": 1 } }"#,
                "already registered",
            ),
        ] {
            let err = session_from_str(text, &catalog).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn sessions_round_trip_byte_identically() {
        let catalog = ScenarioCatalog::builtin();
        // Mixed builtin session.
        let session = SessionSpec::mixed(
            "m",
            &[
                UsageScenario::VrGaming.spec(),
                UsageScenario::ArAssistant.spec(),
            ],
            5,
            0.01,
        );
        let json = session_to_json(&session);
        assert_eq!(session_from_str(&json, &catalog).unwrap(), session);

        // Session with a non-builtin scenario: exported as a local def.
        let custom = ScenarioBuilder::new("Fitness")
            .model(HandTracking, 30.0)
            .build()
            .unwrap();
        let session = SessionSpec::new("c")
            .with_user(custom, 0.0)
            .with_user(UsageScenario::VrGaming.spec(), 0.25);
        let json = session_to_json(&session);
        assert!(json.contains("\"scenarios\""), "{json}");
        assert_eq!(session_from_str(&json, &catalog).unwrap(), session);

        // Two users on the *same* custom scenario need only one local
        // definition.
        let custom = ScenarioBuilder::new("Shared")
            .model(HandTracking, 30.0)
            .build()
            .unwrap();
        let session = SessionSpec::new("s")
            .with_user(custom.clone(), 0.0)
            .with_user(custom, 0.1);
        let json = session_to_json(&session);
        assert_eq!(json.matches("\"Shared\"").count(), 3, "{json}"); // 1 def + 2 refs
        assert_eq!(session_from_str(&json, &catalog).unwrap(), session);
    }

    #[test]
    #[should_panic(expected = "share the name")]
    fn exporting_duplicate_named_distinct_scenarios_panics() {
        // The wire format references scenarios by name; silently
        // giving user B scenario A's definition would corrupt the
        // round trip.
        let a = ScenarioBuilder::new("X")
            .model(HandTracking, 30.0)
            .build()
            .unwrap();
        let b = ScenarioBuilder::new("X")
            .model(EyeSegmentation, 60.0)
            .build()
            .unwrap();
        let session = SessionSpec::new("s").with_user(a, 0.0).with_user(b, 0.1);
        let _ = session_to_json(&session);
    }

    #[test]
    #[should_panic(expected = "shadows a builtin name")]
    fn exporting_builtin_shadowing_scenario_panics() {
        // A non-builtin "VR Gaming" would export as a local def that
        // collides with the builtin on reload.
        let shadow = ScenarioBuilder::new("VR Gaming")
            .model(HandTracking, 30.0)
            .build()
            .unwrap();
        let session = SessionSpec::new("s").with_user(shadow, 0.0);
        let _ = session_to_json(&session);
    }
}
