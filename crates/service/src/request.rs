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
//! Only `apps` (or singular `app`) is required. Cells are labelled
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

fn str_list(doc: &Json, plural: &str, singular: &str) -> Result<Vec<String>, String> {
    if let Some(arr) = doc.get(plural).and_then(Json::as_arr) {
        let mut out = Vec::with_capacity(arr.len());
        for v in arr {
            out.push(
                v.as_str()
                    .ok_or_else(|| format!("'{plural}' entries must be strings"))?
                    .to_string(),
            );
        }
        return Ok(out);
    }
    if let Some(one) = doc.get(singular).and_then(Json::as_str) {
        return Ok(vec![one.to_string()]);
    }
    Ok(Vec::new())
}

/// Parses and validates one request document.
pub fn parse_request(text: &str) -> Result<CampaignRequest, String> {
    let doc = parse(text)?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("campaign")
        .to_string();

    let apps = str_list(&doc, "apps", "app")?;
    if apps.is_empty() {
        return Err("request needs 'app' or 'apps'".into());
    }
    let apps: Vec<Application> = apps
        .iter()
        .map(|n| Application::by_name(n).ok_or_else(|| format!("unknown application '{n}'")))
        .collect::<Result<_, _>>()?;

    let scales: Vec<f64> = match doc.get("scales").and_then(Json::as_arr) {
        Some(arr) => arr
            .iter()
            .map(|v| v.as_f64().ok_or_else(|| "'scales' entries must be numbers".to_string()))
            .collect::<Result<_, _>>()?,
        None => vec![doc.get("scale").and_then(Json::as_f64).unwrap_or(1.0)],
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

    let dist = match doc.get("dist").and_then(Json::as_str) {
        Some(key) => Some(
            FailureDistribution::by_name(key)
                .ok_or_else(|| format!("unknown failure distribution '{key}'"))?,
        ),
        None => None,
    };
    let fn_rate = doc.get("fn_rate").and_then(Json::as_f64);
    if fn_rate.is_some_and(|f| !(0.0..=1.0).contains(&f)) {
        return Err("'fn_rate' must be in [0, 1]".into());
    }
    let lm_alpha = doc.get("lm_alpha").and_then(Json::as_f64);
    if lm_alpha.is_some_and(|a| !(a.is_finite() && a > 0.0)) {
        return Err("'lm_alpha' must be positive and finite".into());
    }

    let runs = doc.get("runs").and_then(Json::as_u64).unwrap_or(20) as usize;
    if runs == 0 {
        return Err("'runs' must be at least 1".into());
    }
    let seed = doc.get("seed").and_then(Json::as_u64).unwrap_or(20_220_530);
    let mut config = RunnerConfig::new(runs, seed);
    if let Some(threads) = doc.get("threads").and_then(Json::as_u64) {
        config.threads = threads as usize;
    }
    if let Some(spec) = doc.get("vr").and_then(Json::as_str) {
        config.vr =
            parse_vr_spec(spec).ok_or_else(|| format!("unknown VR spec '{spec}'"))?;
    }

    let prefilter = match doc.get("prefilter").and_then(Json::as_str) {
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
    }
}
