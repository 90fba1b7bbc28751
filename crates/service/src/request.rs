//! Campaign request parsing: config JSON in, a grid sweep out.
//!
//! A request names an experiment sweep the same way the bench harness
//! builds one: applications × lead-time scales, a model list, and the
//! execution knobs (runs, seed, VR mode, prefilter, threads). Example:
//!
//! ```json
//! {
//!   "name": "fig4",
//!   "apps": ["CHIMERA", "XGC", "POP"],
//!   "scales": [1.5, 1.1, 0.9, 0.5],
//!   "models": ["B", "M2"],
//!   "runs": 200,
//!   "seed": 20220530,
//!   "vr": "antithetic",
//!   "prefilter": "analytic:0.15",
//!   "dist": "titan",
//!   "fn_rate": 0.15,
//!   "lm_alpha": 1.0,
//!   "threads": 0
//! }
//! ```
//!
//! Only `apps` (or singular `app`) is required. A key not shown here,
//! a key given twice, a singular key beside its plural (`app`/`apps`,
//! `model`/`models`, `scale`/`scales`), a value of another JSON type,
//! and a `runs`, `seed` or `threads` that is not an integer in
//! [0, 2^53) are each an error naming the key. Cells are labelled
//! `"{app}@{scale}"`, matching the bench harness, and enumerate
//! app-major (every scale of the first app, then the next app) so the
//! request text canonically determines cell order — and with it the
//! campaign fingerprint the sweep journal binds to.

use pckpt_core::{
    parse_vr_spec, GridCell, ModelKind, Prefilter, RunnerConfig, SimParams,
};
use pckpt_failure::FailureDistribution;
use pckpt_workloads::Application;

use crate::json::{parse, Json};

/// A parsed, validated campaign request.
#[derive(Debug, Clone)]
pub struct CampaignRequest {
    /// Display name (also names the journal and response artifacts).
    pub name: String,
    /// The sweep's cells, in canonical request order.
    pub cells: Vec<GridCell>,
    /// Execution configuration (runs, seed, VR, threads).
    pub config: RunnerConfig,
    /// Analytic prefilter, if requested.
    pub prefilter: Option<Prefilter>,
}

/// Every key a request may carry. Anything else is rejected by name, so
/// a misspelt knob fails instead of silently keeping its default.
const KEYS: [&str; 15] = [
    "name", "app", "apps", "scale", "scales", "model", "models", "runs", "seed", "vr",
    "prefilter", "dist", "fn_rate", "lm_alpha", "threads",
];

/// 2^53: every integer below it is exactly representable as a JSON
/// number (an `f64`); at or above it a literal may already have been
/// rounded to a neighbour, so a seed there could silently change.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Checks that the request is an object whose every key is known, given
/// once, and never given in both its singular and its plural form.
fn check_keys(doc: &Json) -> Result<(), String> {
    let Json::Obj(members) = doc else {
        return Err("a request must be a JSON object".into());
    };
    for (i, (key, _)) in members.iter().enumerate() {
        if !KEYS.contains(&key.as_str()) {
            return Err(format!("unknown request key '{key}'"));
        }
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("request key '{key}' given twice"));
        }
    }
    for (one, many) in [("app", "apps"), ("model", "models"), ("scale", "scales")] {
        if doc.get(one).is_some() && doc.get(many).is_some() {
            return Err(format!("give '{one}' or '{many}', not both"));
        }
    }
    Ok(())
}

/// The string at `key`, if given; any other JSON type is an error.
fn string<'a>(doc: &'a Json, key: &str) -> Result<Option<&'a str>, String> {
    doc.get(key)
        .map(|v| v.as_str().ok_or_else(|| format!("'{key}' must be a string")))
        .transpose()
}

/// The number at `key`, if given; any other JSON type is an error.
fn number(doc: &Json, key: &str) -> Result<Option<f64>, String> {
    doc.get(key)
        .map(|v| v.as_f64().ok_or_else(|| format!("'{key}' must be a number")))
        .transpose()
}

/// The integer at `key`, if given: a number that is integral,
/// non-negative and below 2^53, so the value is exactly the literal.
fn integer(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    doc.get(key)
        .map(|v| match v {
            // Exact integrality check on a parsed literal, not a
            // computed float. simlint: allow(no-float-eq)
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT_INTEGERS => Ok(*n as u64),
            _ => Err(format!("'{key}' must be an integer in [0, 2^53)")),
        })
        .transpose()
}

/// The strings of the array at `plural`, or the one string at
/// `singular` (never both; see [`check_keys`]), or none.
fn str_list(doc: &Json, plural: &str, singular: &str) -> Result<Vec<String>, String> {
    if let Some(v) = doc.get(plural) {
        let not_strings = || format!("'{plural}' must be an array of strings");
        return v
            .as_arr()
            .ok_or_else(not_strings)?
            .iter()
            .map(|item| item.as_str().map(str::to_string).ok_or_else(not_strings))
            .collect();
    }
    Ok(string(doc, singular)?.map(str::to_string).into_iter().collect())
}

/// Parses and validates one request document. Every key must be one
/// the format documents, given once and with its documented JSON type;
/// anything else is an error that names the key, never a fallback.
pub fn parse_request(text: &str) -> Result<CampaignRequest, String> {
    let doc = parse(text)?;
    check_keys(&doc)?;
    let name = string(&doc, "name")?.unwrap_or("campaign").to_string();

    let apps = str_list(&doc, "apps", "app")?;
    if apps.is_empty() {
        return Err("request needs 'app' or 'apps'".into());
    }
    let apps: Vec<Application> = apps
        .iter()
        .map(|n| Application::by_name(n).ok_or_else(|| format!("unknown application '{n}'")))
        .collect::<Result<_, _>>()?;

    let scales: Vec<f64> = match doc.get("scales") {
        Some(v) => {
            let not_numbers = || "'scales' must be an array of numbers".to_string();
            v.as_arr()
                .ok_or_else(not_numbers)?
                .iter()
                .map(|s| s.as_f64().ok_or_else(not_numbers))
                .collect::<Result<_, _>>()?
        }
        None => vec![number(&doc, "scale")?.unwrap_or(1.0)],
    };
    if scales.iter().any(|s| !s.is_finite() || *s <= 0.0) {
        return Err("'scales' must be positive and finite".into());
    }

    let model_names = {
        let list = str_list(&doc, "models", "model")?;
        if list.is_empty() {
            vec!["B".to_string(), "P2".to_string()]
        } else {
            list
        }
    };
    let models: Vec<ModelKind> = model_names
        .iter()
        .map(|n| ModelKind::by_name(n).ok_or_else(|| format!("unknown model '{n}'")))
        .collect::<Result<_, _>>()?;

    let dist = match string(&doc, "dist")? {
        Some(key) => Some(
            FailureDistribution::by_name(key)
                .ok_or_else(|| format!("unknown failure distribution '{key}'"))?,
        ),
        None => None,
    };
    let fn_rate = number(&doc, "fn_rate")?;
    if fn_rate.is_some_and(|f| !(0.0..=1.0).contains(&f)) {
        return Err("'fn_rate' must be in [0, 1]".into());
    }
    let lm_alpha = number(&doc, "lm_alpha")?;
    if lm_alpha.is_some_and(|a| !(a.is_finite() && a > 0.0)) {
        return Err("'lm_alpha' must be positive and finite".into());
    }

    let runs = integer(&doc, "runs")?.unwrap_or(20) as usize;
    if runs == 0 {
        return Err("'runs' must be at least 1".into());
    }
    let seed = integer(&doc, "seed")?.unwrap_or(20_220_530);
    let mut config = RunnerConfig::new(runs, seed);
    if let Some(threads) = integer(&doc, "threads")? {
        config.threads = threads as usize;
    }
    if let Some(spec) = string(&doc, "vr")? {
        config.vr =
            parse_vr_spec(spec).ok_or_else(|| format!("unknown VR spec '{spec}'"))?;
    }

    let prefilter = match string(&doc, "prefilter")? {
        Some(spec) => Prefilter::parse(spec)?,
        None => None,
    };

    let mut cells = Vec::with_capacity(apps.len() * scales.len());
    for app in &apps {
        for &scale in &scales {
            let mut params = match dist {
                Some(d) => SimParams::with_distribution(ModelKind::B, *app, d),
                None => SimParams::paper_defaults(ModelKind::B, *app),
            };
            params.lead_scale = scale;
            if let Some(fnr) = fn_rate {
                params.predictor = params.predictor.with_false_negative_rate(fnr);
            }
            if let Some(alpha) = lm_alpha {
                params.lm_transfer_factor = alpha;
            }
            cells.push(
                GridCell::new(params, &models).with_label(format!("{}@{scale}", app.name)),
            );
        }
    }

    Ok(CampaignRequest {
        name,
        cells,
        config,
        prefilter,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let req = parse_request(
            r#"{"name":"fig4","apps":["XGC","POP"],"scales":[1.5,0.5],
                "models":["B","M2"],"runs":6,"seed":61,"vr":"antithetic",
                "prefilter":"analytic:0.2","threads":1}"#,
        )
        .unwrap();
        assert_eq!(req.name, "fig4");
        assert_eq!(req.cells.len(), 4);
        assert_eq!(req.cells[0].label, "XGC@1.5");
        assert_eq!(req.cells[3].label, "POP@0.5");
        assert_eq!(req.config.runs, 6);
        assert_eq!(req.config.base_seed, 61);
        assert!(req.config.vr.antithetic);
        assert_eq!(req.config.threads, 1);
        assert!(req.prefilter.is_some());
    }

    #[test]
    fn defaults_are_sensible() {
        let req = parse_request(r#"{"app":"XGC"}"#).unwrap();
        assert_eq!(req.cells.len(), 1);
        assert_eq!(req.cells[0].models, vec![ModelKind::B, ModelKind::P2]);
        assert_eq!(req.config.runs, 20);
        assert!(!req.config.vr.is_active());
        assert!(req.prefilter.is_none());
    }

    #[test]
    fn rejects_invalid_requests() {
        for bad in [
            r#"{}"#,
            r#"{"app":"NOPE"}"#,
            r#"{"app":"XGC","models":["Q9"]}"#,
            r#"{"app":"XGC","runs":0}"#,
            r#"{"app":"XGC","scales":[-1.0]}"#,
            r#"{"app":"XGC","vr":"bogus"}"#,
            r#"{"app":"XGC","dist":"marsrover"}"#,
            r#"{"app":"XGC","prefilter":"analytics"}"#,
            r#"{"app":"XGC","prefilter":"analytic:lots"}"#,
            r#"{"app":"XGC","prefilter":"analytic:-1"}"#,
            r#"{"app":"XGC","fn_rate":1.5}"#,
            r#"{"app":"XGC","fn_rate":-0.1}"#,
            r#"{"app":"XGC","lm_alpha":0}"#,
            r#"{"app":"XGC","lm_alpha":-2.5}"#,
            r#"{"app":"XGC","lm_alpha":1e999}"#,
            r#"not json"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} accepted");
        }
        // Each of these was once answered with a different question's
        // cell (a default or a rounded value); now each is an error that
        // names the key.
        for (bad, key) in [
            (r#"{"app":"POP","runs":"3","models":["B"],"threads":1}"#, "runs"),
            (r#"{"app":"POP","run":3}"#, "run"),
            (r#"{"app":"POP","runs":3.5}"#, "runs"),
            (r#"{"app":"POP","runs":-3}"#, "runs"),
            (r#"{"app":"POP","models":"M2"}"#, "models"),
            (r#"{"app":"POP","seed":9007199254740993}"#, "seed"),
            (r#"{"app":"POP","seed":1e300}"#, "seed"),
            (r#"{"app":"POP","threads":1.5}"#, "threads"),
            (r#"{"app":"POP","threads":true}"#, "threads"),
            (r#"{"app":"POP","runs":3,"runs":4}"#, "runs"),
            (r#"{"app":"POP","apps":["XGC"]}"#, "apps"),
            (r#"{"app":"POP","model":"B","models":["P2"]}"#, "models"),
            (r#"{"app":"POP","scale":1.0,"scales":[0.5]}"#, "scales"),
            (r#"{"app":"POP","scale":"1.0"}"#, "scale"),
            (r#"{"app":"POP","scales":[1.0,"0.5"]}"#, "scales"),
            (r#"{"app":["POP"]}"#, "app"),
            (r#"{"apps":["POP",7]}"#, "apps"),
            (r#"{"app":"POP","name":7}"#, "name"),
            (r#"{"app":"POP","vr":null}"#, "vr"),
            (r#"{"app":"POP","dist":1}"#, "dist"),
            (r#"{"app":"POP","prefilter":0.2}"#, "prefilter"),
            (r#"{"app":"POP","fn_rate":"0.1"}"#, "fn_rate"),
            (r#"{"app":"POP","lm_alpha":[1]}"#, "lm_alpha"),
            (r#"["POP"]"#, "object"),
        ] {
            let err = parse_request(bad).expect_err(bad);
            assert!(err.contains(key), "{bad:?}: error {err:?} does not name '{key}'");
        }
    }

    #[test]
    fn integers_are_exact_up_to_two_to_the_53() {
        let req = parse_request(r#"{"app":"POP","seed":9007199254740991}"#).unwrap();
        assert_eq!(req.config.base_seed, (1 << 53) - 1);
        assert!(parse_request(r#"{"app":"POP","seed":9007199254740992}"#).is_err());
        let req = parse_request(r#"{"app":"POP","runs":3.0,"threads":0}"#).unwrap();
        assert_eq!((req.config.runs, req.config.threads), (3, 0));
    }

    #[test]
    fn benchmark_request_keys_parse() {
        let req = parse_request(
            r#"{"name":"pbench","apps":["CHIMERA","XGC","POP"],"scales":[1.10,0.70],
                "models":["B","M2"],"runs":64,"seed":20220530,"threads":1}"#,
        )
        .unwrap();
        assert_eq!(req.cells.len(), 6);
        assert_eq!(req.config.runs, 64);
    }
}
