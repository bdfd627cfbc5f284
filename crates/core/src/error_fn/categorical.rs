//! Categorical error functions.

use super::{validate_typed, ErrorFunction};
use icewafl_types::{DataType, Error, Result, Schema, Text, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::RngExt;

/// Replaces a categorical value with a *different* category from the
/// domain — "Incorrect Category" in Fig. 3 (e.g. wind direction `N`
/// recorded as `SW`).
pub struct IncorrectCategory {
    categories: Vec<Text>,
    rng: StdRng,
}

impl IncorrectCategory {
    /// An error drawing replacements from `categories` (at least two are
    /// required so a *different* category always exists; validated at
    /// bind time).
    pub fn new(categories: Vec<String>, rng: StdRng) -> Self {
        IncorrectCategory {
            categories: categories.into_iter().map(Text::from).collect(),
            rng,
        }
    }
}

impl ErrorFunction for IncorrectCategory {
    fn validate(&self, schema: &Schema, attrs: &[usize]) -> Result<()> {
        if self.categories.len() < 2 {
            return Err(Error::config(
                "incorrect_category needs at least two categories to guarantee a change",
            ));
        }
        validate_typed(self.name(), DataType::Str, schema, attrs)
    }

    fn apply(&mut self, tuple: &mut Tuple, attrs: &[usize], _tau: Timestamp, _intensity: f64) {
        for &idx in attrs {
            let Some(v) = tuple.get_mut(idx) else {
                continue;
            };
            let Value::Str(current) = v else { continue };
            // Rejection-sample a category different from the current
            // value; with ≥ 2 categories this terminates quickly even if
            // the current value is in the list.
            let n = self.categories.len();
            for _ in 0..64 {
                let candidate = &self.categories[self.rng.random_range(0..n)];
                if candidate != &*current {
                    *v = Value::Str(candidate.clone());
                    break;
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "incorrect_category"
    }

    fn snapshot_state(&self) -> Option<String> {
        Some(crate::snapshot::rng_doc(&self.rng))
    }

    fn restore_state(&mut self, state: &str) -> Result<()> {
        self.rng = crate::snapshot::rng_from_doc(state)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error_fn::test_util::apply_once;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    fn cats() -> Vec<String> {
        vec!["N".into(), "S".into(), "E".into(), "W".into()]
    }

    #[test]
    fn replaces_with_different_category() {
        let mut f = IncorrectCategory::new(cats(), rng());
        for _ in 0..100 {
            let t = apply_once(&mut f, vec![Value::Str("N".into())], &[0]);
            let got = t.get(0).unwrap().as_str().unwrap();
            assert_ne!(got, "N");
            assert!(cats().iter().any(|c| c == got));
        }
    }

    #[test]
    fn value_outside_domain_is_still_replaced() {
        let mut f = IncorrectCategory::new(cats(), rng());
        let t = apply_once(&mut f, vec![Value::Str("??".into())], &[0]);
        assert!(cats()
            .iter()
            .any(|c| c == t.get(0).unwrap().as_str().unwrap()));
    }

    #[test]
    fn skips_null() {
        let mut f = IncorrectCategory::new(cats(), rng());
        let t = apply_once(&mut f, vec![Value::Null], &[0]);
        assert!(t.get(0).unwrap().is_null());
    }

    #[test]
    fn validates_category_count_and_types() {
        let schema = Schema::from_pairs([("wd", DataType::Str), ("x", DataType::Int)]).unwrap();
        let ok = IncorrectCategory::new(cats(), rng());
        assert!(ok.validate(&schema, &[0]).is_ok());
        assert!(ok.validate(&schema, &[1]).is_err(), "numeric attr rejected");
        let too_few = IncorrectCategory::new(vec!["only".into()], rng());
        assert!(too_few.validate(&schema, &[0]).is_err());
    }

    #[test]
    fn all_categories_reachable() {
        let mut f = IncorrectCategory::new(cats(), rng());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            let t = apply_once(&mut f, vec![Value::Str("N".into())], &[0]);
            seen.insert(t.get(0).unwrap().as_str().unwrap().to_string());
        }
        assert_eq!(seen.len(), 3, "S, E, W all reachable; N excluded: {seen:?}");
    }
}
