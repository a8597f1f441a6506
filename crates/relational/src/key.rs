//! Key constraints — needed only by the Strobe/C-strobe baselines.
//!
//! The Strobe family assumes every base relation has a unique key and that
//! the view projection *retains the key attributes of every relation*
//! (paper §3). SWEEP explicitly drops this assumption, so nothing in the
//! SWEEP/Nested SWEEP path depends on this module.

use crate::error::RelationalError;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::view::ViewDef;

/// Declares the key attributes (positions local to each relation) of every
/// relation in a view's chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KeySpec {
    per_relation: Vec<Vec<usize>>,
}

impl KeySpec {
    /// Build from per-relation key attribute positions.
    pub fn new(per_relation: Vec<Vec<usize>>) -> Self {
        KeySpec { per_relation }
    }

    /// Build from qualified attribute names, e.g.
    /// `[["R1.A"], ["R2.C"], ["R3.E"]]`.
    pub fn from_names<I, J, S>(view: &ViewDef, keys: I) -> Result<Self, RelationalError>
    where
        I: IntoIterator<Item = J>,
        J: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut per_relation = vec![Vec::new(); view.num_relations()];
        for (i, rel_keys) in keys.into_iter().enumerate() {
            if i >= view.num_relations() {
                return Err(RelationalError::InvalidViewDef {
                    reason: "more key groups than relations".into(),
                });
            }
            for k in rel_keys {
                let q = k.as_ref();
                let (rel, attr) =
                    q.split_once('.')
                        .ok_or_else(|| RelationalError::InvalidViewDef {
                            reason: format!("expected Rel.Attr, got {q:?}"),
                        })?;
                if rel != view.schema(i).name() {
                    return Err(RelationalError::InvalidViewDef {
                        reason: format!("key {q} listed under relation {}", view.schema(i).name()),
                    });
                }
                per_relation[i].push(view.schema(i).attr_index(attr)?);
            }
        }
        Ok(KeySpec { per_relation })
    }

    /// Key positions (local) for relation `i`.
    #[cfg(test)]
    pub(crate) fn keys_of(&self, i: usize) -> &[usize] {
        &self.per_relation[i]
    }

    /// Extract the key values from a base-relation tuple of relation `i`.
    pub fn key_of_tuple(&self, i: usize, tuple: &Tuple) -> Vec<Value> {
        self.per_relation[i]
            .iter()
            .map(|&k| tuple.at(k).clone())
            .collect()
    }

    /// Validate the Strobe assumption against a view: every relation's key
    /// attributes must survive the projection. Returns, for each relation,
    /// the positions of its key attributes **within the projected view
    /// tuple** — what Strobe uses to match delete-markers and suppress
    /// duplicates.
    pub fn view_key_map(&self, view: &ViewDef) -> Result<ViewKeyMap, RelationalError> {
        if self.per_relation.len() != view.num_relations() {
            return Err(RelationalError::InvalidViewDef {
                reason: format!(
                    "key spec covers {} relations, view has {}",
                    self.per_relation.len(),
                    view.num_relations()
                ),
            });
        }
        let mut map = Vec::with_capacity(view.num_relations());
        for (i, keys) in self.per_relation.iter().enumerate() {
            if keys.is_empty() {
                return Err(RelationalError::InvalidViewDef {
                    reason: format!(
                        "relation {} has no key attributes (Strobe requires one)",
                        view.schema(i).name()
                    ),
                });
            }
            let mut view_positions = Vec::with_capacity(keys.len());
            for &k in keys {
                let global = view.offset(i) + k;
                let pos = view
                    .projection()
                    .iter()
                    .position(|&p| p == global)
                    .ok_or_else(|| RelationalError::InvalidViewDef {
                        reason: format!(
                            "Strobe requires key attribute {} in the projection",
                            view.attr_name(global)
                        ),
                    })?;
                view_positions.push(pos);
            }
            map.push(view_positions);
        }
        Ok(ViewKeyMap { per_relation: map })
    }
}

/// For each relation, where its key attributes land inside a projected view
/// tuple. Produced by [`KeySpec::view_key_map`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewKeyMap {
    per_relation: Vec<Vec<usize>>,
}

impl ViewKeyMap {
    /// View-tuple positions of relation `i`'s key.
    pub fn positions(&self, i: usize) -> &[usize] {
        &self.per_relation[i]
    }

    /// Extract relation `i`'s key values from a *view* tuple.
    pub fn key_of_view_tuple(&self, i: usize, view_tuple: &Tuple) -> Vec<Value> {
        self.per_relation[i]
            .iter()
            .map(|&p| view_tuple.at(p).clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tup;
    use crate::view::ViewDefBuilder;

    fn keyed_view() -> ViewDef {
        ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .project(["R1.A", "R2.C", "R2.D"])
            .build()
            .unwrap()
    }

    #[test]
    fn from_names_resolves() {
        let v = keyed_view();
        let ks = KeySpec::from_names(&v, [vec!["R1.A"], vec!["R2.C"]]).unwrap();
        assert_eq!(ks.keys_of(0), &[0]);
        assert_eq!(ks.keys_of(1), &[0]);
    }

    #[test]
    fn view_key_map_positions() {
        let v = keyed_view();
        let ks = KeySpec::from_names(&v, [vec!["R1.A"], vec!["R2.C"]]).unwrap();
        let m = ks.view_key_map(&v).unwrap();
        assert_eq!(m.positions(0), &[0]); // R1.A is view column 0
        assert_eq!(m.positions(1), &[1]); // R2.C is view column 1
        let key = m.key_of_view_tuple(1, &tup![9, 3, 7]);
        assert_eq!(key, vec![Value::Int(3)]);
    }

    #[test]
    fn projection_must_retain_keys() {
        let v = ViewDefBuilder::new()
            .relation(Schema::new("R1", ["A", "B"]).unwrap())
            .relation(Schema::new("R2", ["C", "D"]).unwrap())
            .join("R1.B", "R2.C")
            .project(["R2.D"]) // drops both keys
            .build()
            .unwrap();
        let ks = KeySpec::from_names(&v, [vec!["R1.A"], vec!["R2.C"]]).unwrap();
        assert!(ks.view_key_map(&v).is_err());
    }

    #[test]
    fn empty_key_rejected() {
        let v = keyed_view();
        let ks = KeySpec::new(vec![vec![], vec![0]]);
        assert!(ks.view_key_map(&v).is_err());
    }

    #[test]
    fn key_of_tuple_extracts_values() {
        let v = keyed_view();
        let ks = KeySpec::from_names(&v, [vec!["R1.A"], vec!["R2.C"]]).unwrap();
        assert_eq!(ks.key_of_tuple(0, &tup![42, 3]), vec![Value::Int(42)]);
    }

    #[test]
    fn wrong_relation_name_rejected() {
        let v = keyed_view();
        assert!(KeySpec::from_names(&v, [vec!["R2.C"], vec!["R1.A"]]).is_err());
    }
}
