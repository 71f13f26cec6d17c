//! The MIP instance model.
//!
//! Represents the paper's Equation (1):
//!
//! ```text
//! maximize  cᵀx   subject to  Ax ≤ b,   x = {x_r, x_z},
//! x_r real, x_z integer
//! ```
//!
//! generalized with ≥/= senses, variable bounds, and a minimize/maximize
//! flag so that standard model families (set cover, unit commitment) are
//! expressible directly. Lowering to the equality standard form with slack
//! variables ("the inequality of Ax ≤ b can be replaced with equality ...
//! with the introduction of variables y ≥ 0") happens in `gmip-lp`.

use gmip_linalg::{CooMatrix, CsrMatrix, DenseMatrix};

/// Kind of a decision variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarType {
    /// Continuous (the `x_r` block of Equation 1).
    Continuous,
    /// General integer (the `x_z` block).
    Integer,
    /// 0/1 integer.
    Binary,
}

impl VarType {
    /// Whether the variable carries an integrality constraint.
    pub fn is_integral(self) -> bool {
        !matches!(self, VarType::Continuous)
    }
}

/// Sense of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// `aᵀx ≤ b`
    Le,
    /// `aᵀx ≥ b`
    Ge,
    /// `aᵀx = b`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Maximize `cᵀx` (the paper's canonical form).
    Maximize,
    /// Minimize `cᵀx`.
    Minimize,
}

/// A decision variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Variable {
    /// Display name (also used by the MPS writer).
    pub name: String,
    /// Variable kind.
    pub ty: VarType,
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lb: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub ub: f64,
    /// Objective coefficient.
    pub obj: f64,
}

impl Variable {
    /// A continuous variable on `[lb, ub]`.
    pub fn continuous(name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> Self {
        Self {
            name: name.into(),
            ty: VarType::Continuous,
            lb,
            ub,
            obj,
        }
    }

    /// A binary variable.
    pub fn binary(name: impl Into<String>, obj: f64) -> Self {
        Self {
            name: name.into(),
            ty: VarType::Binary,
            lb: 0.0,
            ub: 1.0,
            obj,
        }
    }

    /// A general integer variable on `[lb, ub]`.
    pub fn integer(name: impl Into<String>, lb: f64, ub: f64, obj: f64) -> Self {
        Self {
            name: name.into(),
            ty: VarType::Integer,
            lb,
            ub,
            obj,
        }
    }
}

/// A linear constraint `Σ coeffs·x  (sense)  rhs`, with coefficients stored
/// sparsely as `(var_index, value)` pairs sorted by index.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// Display name.
    pub name: String,
    /// Sorted sparse coefficients.
    pub coeffs: Vec<(usize, f64)>,
    /// Constraint sense.
    pub sense: Sense,
    /// Right-hand side.
    pub rhs: f64,
}

impl Constraint {
    /// Builds a constraint, sorting and merging its coefficients.
    pub fn new(
        name: impl Into<String>,
        mut coeffs: Vec<(usize, f64)>,
        sense: Sense,
        rhs: f64,
    ) -> Self {
        coeffs.sort_unstable_by_key(|&(j, _)| j);
        coeffs.dedup_by(|b, a| {
            if a.0 == b.0 {
                a.1 += b.1;
                true
            } else {
                false
            }
        });
        coeffs.retain(|&(_, v)| v != 0.0);
        Self {
            name: name.into(),
            coeffs,
            sense,
            rhs,
        }
    }

    /// Left-hand-side value at point `x`.
    pub fn lhs(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().map(|&(j, v)| v * x[j]).sum()
    }

    /// Whether the constraint holds at `x` within tolerance `tol`.
    pub fn satisfied(&self, x: &[f64], tol: f64) -> bool {
        let lhs = self.lhs(x);
        match self.sense {
            Sense::Le => lhs <= self.rhs + tol,
            Sense::Ge => lhs >= self.rhs - tol,
            Sense::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Errors raised by instance validation.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// A constraint references a variable index that does not exist.
    BadVarIndex {
        /// Constraint index.
        constraint: usize,
        /// Offending variable index.
        var: usize,
    },
    /// A variable has `lb > ub`.
    EmptyBoundRange {
        /// Variable index.
        var: usize,
    },
    /// A binary variable's bounds are outside `[0, 1]`.
    BadBinaryBounds {
        /// Variable index.
        var: usize,
    },
    /// A variable's objective coefficient is NaN or infinite.
    NonFiniteObjective {
        /// Variable index.
        var: usize,
    },
    /// A constraint coefficient is NaN or infinite.
    NonFiniteCoefficient {
        /// Constraint index.
        constraint: usize,
        /// Variable index.
        var: usize,
    },
    /// A constraint's right-hand side is NaN or infinite.
    NonFiniteRhs {
        /// Constraint index.
        constraint: usize,
    },
    /// A variable bound is NaN (an infinite bound is legal).
    NanBound {
        /// Variable index.
        var: usize,
    },
}

impl std::fmt::Display for InstanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceError::BadVarIndex { constraint, var } => {
                write!(
                    f,
                    "constraint {constraint} references missing variable {var}"
                )
            }
            InstanceError::EmptyBoundRange { var } => {
                write!(f, "variable {var} has lb > ub")
            }
            InstanceError::BadBinaryBounds { var } => {
                write!(f, "binary variable {var} has bounds outside [0,1]")
            }
            InstanceError::NonFiniteObjective { var } => {
                write!(f, "variable {var} has a non-finite objective coefficient")
            }
            InstanceError::NonFiniteCoefficient { constraint, var } => {
                write!(
                    f,
                    "constraint {constraint} has a non-finite coefficient on variable {var}"
                )
            }
            InstanceError::NonFiniteRhs { constraint } => {
                write!(
                    f,
                    "constraint {constraint} has a non-finite right-hand side"
                )
            }
            InstanceError::NanBound { var } => write!(f, "variable {var} has a NaN bound"),
        }
    }
}

impl std::error::Error for InstanceError {}

/// A complete mixed integer programming instance.
#[derive(Debug, Clone, PartialEq)]
pub struct MipInstance {
    /// Instance name.
    pub name: String,
    /// Optimization direction.
    pub objective: Objective,
    /// Decision variables.
    pub vars: Vec<Variable>,
    /// Linear constraints.
    pub cons: Vec<Constraint>,
}

impl MipInstance {
    /// Creates an empty instance.
    pub fn new(name: impl Into<String>, objective: Objective) -> Self {
        Self {
            name: name.into(),
            objective,
            vars: Vec::new(),
            cons: Vec::new(),
        }
    }

    /// Adds a variable, returning its index.
    pub fn add_var(&mut self, v: Variable) -> usize {
        self.vars.push(v);
        self.vars.len() - 1
    }

    /// Adds a constraint, returning its index.
    pub fn add_con(&mut self, c: Constraint) -> usize {
        self.cons.push(c);
        self.cons.len() - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_cons(&self) -> usize {
        self.cons.len()
    }

    /// Number of integral (integer or binary) variables.
    pub fn num_integral(&self) -> usize {
        self.vars.iter().filter(|v| v.ty.is_integral()).count()
    }

    /// Indices of integral variables.
    pub fn integral_indices(&self) -> Vec<usize> {
        self.vars
            .iter()
            .enumerate()
            .filter(|(_, v)| v.ty.is_integral())
            .map(|(i, _)| i)
            .collect()
    }

    /// Structural density of the constraint matrix: `nnz / (m·n)`.
    pub fn density(&self) -> f64 {
        let nnz: usize = self.cons.iter().map(|c| c.coeffs.len()).sum();
        let cells = self.num_cons() * self.num_vars();
        if cells == 0 {
            0.0
        } else {
            nnz as f64 / cells as f64
        }
    }

    /// Validates index ranges, that every objective coefficient, constraint
    /// coefficient and right-hand side is finite, and bound sanity (no NaN,
    /// `lb ≤ ub`). Infinite bounds are legal.
    pub fn validate(&self) -> Result<(), InstanceError> {
        let n = self.num_vars();
        for (ci, c) in self.cons.iter().enumerate() {
            for &(j, a) in &c.coeffs {
                if j >= n {
                    return Err(InstanceError::BadVarIndex {
                        constraint: ci,
                        var: j,
                    });
                }
                if !a.is_finite() {
                    return Err(InstanceError::NonFiniteCoefficient {
                        constraint: ci,
                        var: j,
                    });
                }
            }
            if !c.rhs.is_finite() {
                return Err(InstanceError::NonFiniteRhs { constraint: ci });
            }
        }
        for (vi, v) in self.vars.iter().enumerate() {
            if !v.obj.is_finite() {
                return Err(InstanceError::NonFiniteObjective { var: vi });
            }
            if v.lb.is_nan() || v.ub.is_nan() {
                return Err(InstanceError::NanBound { var: vi });
            }
            if v.lb > v.ub {
                return Err(InstanceError::EmptyBoundRange { var: vi });
            }
            if v.ty == VarType::Binary && (v.lb < -1e-9 || v.ub > 1.0 + 1e-9) {
                return Err(InstanceError::BadBinaryBounds { var: vi });
            }
        }
        Ok(())
    }

    /// Objective value at point `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, xi)| v.obj * xi).sum()
    }

    /// Whether `x` satisfies every constraint and bound within `tol`
    /// (ignoring integrality).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() {
            return false;
        }
        for (v, &xi) in self.vars.iter().zip(x) {
            if xi < v.lb - tol || xi > v.ub + tol {
                return false;
            }
        }
        self.cons.iter().all(|c| c.satisfied(x, tol))
    }

    /// Whether `x` additionally satisfies integrality within `tol`.
    pub fn is_integer_feasible(&self, x: &[f64], tol: f64) -> bool {
        if !self.is_feasible(x, tol) {
            return false;
        }
        self.vars
            .iter()
            .zip(x)
            .all(|(v, &xi)| !v.ty.is_integral() || (xi - xi.round()).abs() <= tol)
    }

    /// Whether a candidate objective `a` is better than incumbent `b` under
    /// this instance's direction.
    pub fn is_better(&self, a: f64, b: f64) -> bool {
        match self.objective {
            Objective::Maximize => a > b,
            Objective::Minimize => a < b,
        }
    }

    /// Dense constraint matrix `A` (one row per constraint).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut a = DenseMatrix::zeros(self.num_cons(), self.num_vars());
        for (i, c) in self.cons.iter().enumerate() {
            for &(j, v) in &c.coeffs {
                a.set(i, j, v);
            }
        }
        a
    }

    /// Sparse (CSR) constraint matrix.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut coo = CooMatrix::new(self.num_cons(), self.num_vars());
        for (i, c) in self.cons.iter().enumerate() {
            for &(j, v) in &c.coeffs {
                coo.push(i, j, v).expect("validated indices");
            }
        }
        coo.to_csr()
    }

    /// Objective coefficient vector.
    pub fn obj_coeffs(&self) -> Vec<f64> {
        self.vars.iter().map(|v| v.obj).collect()
    }

    /// Right-hand-side vector.
    pub fn rhs(&self) -> Vec<f64> {
        self.cons.iter().map(|c| c.rhs).collect()
    }

    /// Approximate bytes of the dense LP-relaxation matrix — the quantity
    /// Section 3 compares against device memory when choosing a strategy.
    pub fn dense_matrix_bytes(&self) -> usize {
        self.num_cons() * self.num_vars() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// max x + y s.t. x + y <= 1.5, x,y binary → optimum 1.
    fn tiny() -> MipInstance {
        let mut m = MipInstance::new("tiny", Objective::Maximize);
        m.add_var(Variable::binary("x", 1.0));
        m.add_var(Variable::binary("y", 1.0));
        m.add_con(Constraint::new(
            "c0",
            vec![(0, 1.0), (1, 1.0)],
            Sense::Le,
            1.5,
        ));
        m
    }

    #[test]
    fn construction_and_counts() {
        let m = tiny();
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_cons(), 1);
        assert_eq!(m.num_integral(), 2);
        assert_eq!(m.integral_indices(), vec![0, 1]);
        assert!(m.validate().is_ok());
        assert_eq!(m.density(), 1.0);
        assert_eq!(m.dense_matrix_bytes(), 16);
    }

    #[test]
    fn feasibility_checks() {
        let m = tiny();
        assert!(m.is_feasible(&[1.0, 0.5], 1e-9));
        assert!(!m.is_integer_feasible(&[1.0, 0.5], 1e-9));
        assert!(m.is_integer_feasible(&[1.0, 0.0], 1e-9));
        assert!(!m.is_feasible(&[1.0, 1.0], 1e-9)); // violates c0
        assert!(!m.is_feasible(&[1.5, 0.0], 1e-9)); // violates ub
        assert!(!m.is_feasible(&[1.0], 1e-9)); // wrong length
    }

    #[test]
    fn objective_and_direction() {
        let m = tiny();
        assert_eq!(m.objective_value(&[1.0, 0.0]), 1.0);
        assert!(m.is_better(2.0, 1.0));
        let mut mm = tiny();
        mm.objective = Objective::Minimize;
        assert!(mm.is_better(1.0, 2.0));
    }

    #[test]
    fn constraint_senses() {
        let ge = Constraint::new("g", vec![(0, 1.0)], Sense::Ge, 2.0);
        assert!(ge.satisfied(&[2.5], 1e-9));
        assert!(!ge.satisfied(&[1.0], 1e-9));
        let eq = Constraint::new("e", vec![(0, 1.0)], Sense::Eq, 2.0);
        assert!(eq.satisfied(&[2.0], 1e-9));
        assert!(!eq.satisfied(&[2.1], 1e-9));
    }

    #[test]
    fn constraint_merges_duplicates() {
        let c = Constraint::new(
            "c",
            vec![(1, 2.0), (0, 1.0), (1, 3.0), (2, 0.0)],
            Sense::Le,
            1.0,
        );
        assert_eq!(c.coeffs, vec![(0, 1.0), (1, 5.0)]);
    }

    #[test]
    fn validation_errors() {
        let mut m = tiny();
        m.add_con(Constraint::new("bad", vec![(9, 1.0)], Sense::Le, 0.0));
        assert!(matches!(
            m.validate(),
            Err(InstanceError::BadVarIndex {
                constraint: 1,
                var: 9
            })
        ));

        let mut m2 = MipInstance::new("b", Objective::Maximize);
        m2.add_var(Variable::continuous("x", 1.0, 0.0, 0.0));
        assert!(matches!(
            m2.validate(),
            Err(InstanceError::EmptyBoundRange { var: 0 })
        ));

        let mut m3 = MipInstance::new("b2", Objective::Maximize);
        let mut v = Variable::binary("z", 0.0);
        v.ub = 2.0;
        m3.add_var(v);
        assert!(matches!(
            m3.validate(),
            Err(InstanceError::BadBinaryBounds { var: 0 })
        ));
    }

    /// `NaN > x` is false, so only an explicit check sees a NaN; a solver
    /// given one answers wrongly instead of failing.
    #[test]
    fn non_finite_data_is_an_error() {
        let with = |edit: fn(&mut MipInstance)| {
            let mut m = tiny();
            edit(&mut m);
            m.validate()
        };
        assert_eq!(
            with(|m| m.cons[0].coeffs[1].1 = f64::NAN),
            Err(InstanceError::NonFiniteCoefficient {
                constraint: 0,
                var: 1
            })
        );
        assert_eq!(
            with(|m| m.cons[0].coeffs[0].1 = f64::INFINITY),
            Err(InstanceError::NonFiniteCoefficient {
                constraint: 0,
                var: 0
            })
        );
        assert_eq!(
            with(|m| m.cons[0].rhs = f64::NAN),
            Err(InstanceError::NonFiniteRhs { constraint: 0 })
        );
        assert_eq!(
            with(|m| m.cons[0].rhs = f64::NEG_INFINITY),
            Err(InstanceError::NonFiniteRhs { constraint: 0 })
        );
        assert_eq!(
            with(|m| m.vars[1].obj = f64::NAN),
            Err(InstanceError::NonFiniteObjective { var: 1 })
        );
        assert_eq!(
            with(|m| m.vars[0].obj = f64::INFINITY),
            Err(InstanceError::NonFiniteObjective { var: 0 })
        );
        assert_eq!(
            with(|m| m.vars[0].ub = f64::NAN),
            Err(InstanceError::NanBound { var: 0 })
        );
        assert_eq!(
            with(|m| m.vars[1].lb = f64::NAN),
            Err(InstanceError::NanBound { var: 1 })
        );
        // Infinite bounds stay legal.
        let mut m = tiny();
        m.add_var(Variable::continuous(
            "z",
            f64::NEG_INFINITY,
            f64::INFINITY,
            1.0,
        ));
        assert_eq!(m.validate(), Ok(()));
    }

    #[test]
    fn matrix_exports_agree() {
        let m = tiny();
        let dense = m.to_dense();
        let csr = m.to_csr();
        assert_eq!(csr.to_dense(), dense);
        assert_eq!(m.obj_coeffs(), vec![1.0, 1.0]);
        assert_eq!(m.rhs(), vec![1.5]);
    }
}
