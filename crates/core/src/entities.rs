//! DSL entities: indices, variables, coefficients, and field storage.
//!
//! These mirror Finch's `index`, `variable` and `coefficient` commands
//! (paper §III-B). An entity has a label used in symbolic expressions, a
//! shape (which indices it carries), and — for variables — mutable per-cell
//! values, or — for coefficients — static values given as scalars, arrays,
//! or space-time functions.

use pbte_mesh::{Digest, Point};
use std::sync::Arc;

/// A named discrete index such as `d` (direction) or `b` (band).
///
/// DSL surface syntax is 1-based (`range=[1,ndirs]`, as in Julia); all
/// internal loops and storage are 0-based. The symbolic value of an index
/// inside an expression (`I_init[b]`) follows the DSL's 1-based convention.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Index {
    pub name: String,
    /// Number of values; DSL range is `1..=len`.
    pub len: usize,
}

/// Where a variable lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// One value per cell (finite volume unknowns and cell fields).
    Cell,
}

/// A mutable field: the unknown, or auxiliary quantities updated by
/// callbacks (`Io`, `beta`).
#[derive(Debug, Clone)]
pub struct Variable {
    pub name: String,
    pub location: Location,
    /// Ids (into the registry's index list) of the indices this variable
    /// carries, in declaration order.
    pub indices: Vec<usize>,
}

/// Static coefficient values.
#[derive(Clone)]
pub enum CoefficientValue {
    /// One number.
    Scalar(f64),
    /// One number per flattened index combination (e.g. `Sx[d]`).
    Array(Vec<f64>),
    /// A function of position and time (e.g. a spatially varying source).
    Function(Arc<dyn Fn(Point, f64) -> f64 + Send + Sync>),
}

impl std::fmt::Debug for CoefficientValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoefficientValue::Scalar(v) => write!(f, "Scalar({v})"),
            CoefficientValue::Array(a) => write!(f, "Array(len={})", a.len()),
            CoefficientValue::Function(_) => write!(f, "Function(..)"),
        }
    }
}

/// A named coefficient.
#[derive(Debug, Clone)]
pub struct Coefficient {
    pub name: String,
    pub indices: Vec<usize>,
    pub value: CoefficientValue,
}

/// The entity registry a problem accumulates.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    pub indices: Vec<Index>,
    pub variables: Vec<Variable>,
    pub coefficients: Vec<Coefficient>,
}

impl Registry {
    pub fn index_id(&self, name: &str) -> Option<usize> {
        self.indices.iter().position(|i| i.name == name)
    }

    pub fn variable_id(&self, name: &str) -> Option<usize> {
        self.variables.iter().position(|v| v.name == name)
    }

    pub fn coefficient_id(&self, name: &str) -> Option<usize> {
        self.coefficients.iter().position(|c| c.name == name)
    }

    /// Number of flattened index combinations for an entity with `indices`.
    pub fn flat_len(&self, indices: &[usize]) -> usize {
        indices.iter().map(|&i| self.indices[i].len).product()
    }

    /// Fold everything lowering reads of the registry into a plan key
    /// ([`crate::problem::Problem::plan_key`]): every name and shape, and
    /// the *values* of scalar and array coefficients by their bits — a
    /// lowered program folds them into constants, so one ulp is another plan.
    /// A function coefficient folds as "a function": the programs call it
    /// through the problem at run time and bake nothing of it.
    pub(crate) fn fold(&self, d: &mut Digest) {
        d.size(self.indices.len());
        for index in &self.indices {
            d.str(&index.name);
            d.size(index.len);
        }
        d.size(self.variables.len());
        for variable in &self.variables {
            d.str(&variable.name);
            d.sizes(&variable.indices);
        }
        d.size(self.coefficients.len());
        for coefficient in &self.coefficients {
            d.str(&coefficient.name);
            d.sizes(&coefficient.indices);
            match &coefficient.value {
                CoefficientValue::Scalar(v) => {
                    d.size(0);
                    d.f64(*v);
                }
                CoefficientValue::Array(values) => {
                    d.size(1);
                    d.f64s(values);
                }
                CoefficientValue::Function(_) => d.size(2),
            }
        }
    }

    /// Row-major strides over an entity's own indices (declaration order).
    pub fn strides(&self, indices: &[usize]) -> Vec<usize> {
        let mut strides = vec![1usize; indices.len()];
        for k in (0..indices.len().saturating_sub(1)).rev() {
            strides[k] = strides[k + 1] * self.indices[indices[k + 1]].len;
        }
        strides
    }
}

/// Storage for all variables of a problem.
///
/// Layout is **index-major**: the value of variable `v` at `cell` with
/// flattened index `flat` lives at `data[v][flat * n_cells + cell]`, so a
/// fixed `(d, b)` is contiguous over cells. This is the layout the paper's
/// band-partitioned strategies want (a band slice is a contiguous block),
/// and it is what the generated GPU kernel indexes.
#[derive(Debug, Clone)]
pub struct Fields {
    pub n_cells: usize,
    names: Vec<String>,
    /// Flattened index count per variable.
    flat_lens: Vec<usize>,
    data: Vec<Vec<f64>>,
}

impl Fields {
    /// Allocate zeroed storage for every variable in the registry.
    pub fn new(registry: &Registry, n_cells: usize) -> Fields {
        let mut names = Vec::new();
        let mut flat_lens = Vec::new();
        let mut data = Vec::new();
        for v in &registry.variables {
            let flat = registry.flat_len(&v.indices);
            names.push(v.name.clone());
            flat_lens.push(flat);
            data.push(vec![0.0; flat * n_cells]);
        }
        Fields {
            n_cells,
            names,
            flat_lens,
            data,
        }
    }

    /// Variable id by name.
    pub fn var_id(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Flattened index count of a variable.
    pub fn flat_len(&self, var: usize) -> usize {
        self.flat_lens[var]
    }

    /// Storage offset of `(cell, flat)`.
    #[inline]
    pub fn offset(&self, cell: usize, flat: usize) -> usize {
        flat * self.n_cells + cell
    }

    /// Read a value.
    #[inline]
    pub fn value(&self, var: usize, cell: usize, flat: usize) -> f64 {
        self.data[var][flat * self.n_cells + cell]
    }

    /// Write a value.
    #[inline]
    pub fn set(&mut self, var: usize, cell: usize, flat: usize, value: f64) {
        self.data[var][flat * self.n_cells + cell] = value;
    }

    /// Whole-variable slice.
    pub fn slice(&self, var: usize) -> &[f64] {
        &self.data[var]
    }

    /// Whole-variable mutable slice.
    pub fn slice_mut(&mut self, var: usize) -> &mut [f64] {
        &mut self.data[var]
    }

    /// Mutable slices of `N` *distinct* variables at once (the temperature
    /// update reads `I` and writes `T`, `Io` and `beta` in one pass).
    pub fn slices_mut<const N: usize>(&mut self, vars: [usize; N]) -> [&mut [f64]; N] {
        let mut found: [Option<&mut [f64]>; N] = std::array::from_fn(|_| None);
        for (var, data) in self.data.iter_mut().enumerate() {
            if let Some(k) = vars.iter().position(|&v| v == var) {
                found[k] = Some(data);
            }
        }
        found.map(|slice| slice.expect("slices_mut needs distinct, existing variables"))
    }

    /// Replace a variable's storage (e.g. after a device read-back).
    pub fn replace(&mut self, var: usize, values: Vec<f64>) {
        assert_eq!(values.len(), self.data[var].len());
        self.data[var] = values;
    }

    /// Exchange a variable's storage with `values` — how a stage buffer
    /// holding the updated variable becomes the variable without a copy.
    pub fn swap_storage(&mut self, var: usize, values: &mut Vec<f64>) {
        assert_eq!(values.len(), self.data[var].len());
        std::mem::swap(&mut self.data[var], values);
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.data.len()
    }

    /// Per-variable slices in id order — the storage view the bytecode VM
    /// evaluates against (also constructible from device buffers).
    pub fn as_slices(&self) -> Vec<&[f64]> {
        self.data.iter().map(|v| v.as_slice()).collect()
    }

    /// Variable names in id order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> Registry {
        let mut r = Registry::default();
        r.indices.push(Index {
            name: "d".into(),
            len: 4,
        });
        r.indices.push(Index {
            name: "b".into(),
            len: 3,
        });
        r.variables.push(Variable {
            name: "I".into(),
            location: Location::Cell,
            indices: vec![0, 1],
        });
        r.variables.push(Variable {
            name: "Io".into(),
            location: Location::Cell,
            indices: vec![1],
        });
        r
    }

    #[test]
    fn flat_len_and_strides() {
        let r = registry();
        assert_eq!(r.flat_len(&[0, 1]), 12);
        assert_eq!(r.flat_len(&[1]), 3);
        assert_eq!(r.flat_len(&[]), 1);
        // Row-major: d-stride is len(b)=3, b-stride is 1.
        assert_eq!(r.strides(&[0, 1]), vec![3, 1]);
        assert_eq!(r.strides(&[1]), vec![1]);
    }

    #[test]
    fn lookup_by_name() {
        let r = registry();
        assert_eq!(r.index_id("d"), Some(0));
        assert_eq!(r.index_id("q"), None);
        assert_eq!(r.variable_id("Io"), Some(1));
        assert_eq!(r.coefficient_id("vg"), None);
    }

    #[test]
    fn fields_layout_is_index_major() {
        let r = registry();
        let mut f = Fields::new(&r, 10);
        assert_eq!(f.slice(0).len(), 120);
        assert_eq!(f.slice(1).len(), 30);
        f.set(0, 7, 5, 42.0);
        assert_eq!(f.value(0, 7, 5), 42.0);
        // flat=5, cell=7 → offset 57.
        assert_eq!(f.slice(0)[57], 42.0);
        assert_eq!(f.offset(7, 5), 57);
    }

    #[test]
    fn fields_replace_checks_length() {
        let r = registry();
        let mut f = Fields::new(&r, 2);
        f.replace(1, vec![1.0; 6]);
        assert_eq!(f.value(1, 0, 0), 1.0);
    }

    #[test]
    #[should_panic]
    fn replace_with_wrong_length_panics() {
        let r = registry();
        let mut f = Fields::new(&r, 2);
        f.replace(1, vec![1.0; 5]);
    }
}
