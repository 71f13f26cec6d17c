//! The bundled MPS assets load, validate, and solve to the same optima on
//! every execution path — the file-based interchange a downstream user
//! exercises first.

use gmip::core::{MipConfig, MipSolver, MipStatus};
use gmip::gpu::Accel;
use gmip::lp::DeviceEngine;
use gmip::problems::mps::{read_mps, write_mps};
use proptest::prelude::*;

fn load(name: &str) -> gmip::problems::MipInstance {
    let path = format!("{}/assets/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let m = read_mps(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    m.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    m
}

#[test]
fn bundled_assets_solve_consistently() {
    for name in ["knapsack15.mps", "facility5x3.mps", "ucommit3x3.mps"] {
        let instance = load(name);
        assert!(instance.num_vars() > 0);
        let mut host = MipSolver::host_baseline(instance.clone(), MipConfig::default());
        let hr = host.solve().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(hr.status, MipStatus::Optimal, "{name}");
        assert!(
            instance.is_integer_feasible(&hr.x, 1e-5),
            "{name}: incumbent infeasible"
        );
        let mut dev = MipSolver::<DeviceEngine>::on_accel(
            instance.clone(),
            MipConfig::default(),
            Accel::gpu(1),
        );
        let dr = dev.solve().unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            (hr.objective - dr.objective).abs() < 1e-5,
            "{name}: host {} vs device {}",
            hr.objective,
            dr.objective
        );
    }
}

#[test]
fn bundled_knapsack_known_optimum() {
    // The knapsack asset is deterministic (seed 1); pin its optimum so any
    // accidental regeneration or parser drift is caught.
    let instance = load("knapsack15.mps");
    let mut s = MipSolver::host_baseline(instance, MipConfig::default());
    let r = s.solve().expect("solve");
    use gmip::problems::generators::knapsack::{knapsack, knapsack_brute_force};
    let expected = knapsack_brute_force(&knapsack(15, 0.5, 1));
    assert!(
        (r.objective - expected).abs() < 1e-6,
        "asset optimum {} vs generator brute force {}",
        r.objective,
        expected
    );
}

/// `min 3x + 2y` over `5 ≤ x + 2y ≤ 8`, written as an L row of range 3,
/// solves to the optimum of the model with the two rows written out.
#[test]
fn ranged_row_solves_like_its_two_rows() {
    use gmip::problems::{Constraint, MipInstance, Objective, Sense, Variable};
    let text = "NAME r\nROWS\n N  OBJ\n L  cap\nCOLUMNS\n    MARKER  'MARKER'  'INTORG'\n\
        \x20   x  OBJ  3  cap  1\n    y  OBJ  2  cap  2\n    MARKER  'MARKER'  'INTEND'\n\
        RHS\n    RHS  cap  8\nRANGES\n    RNG  cap  3\nBOUNDS\n UP BND  x  4\n UP BND  y  4\nENDATA\n";
    let ranged = read_mps(text).expect("ranged model");
    let mut by_hand = MipInstance::new("r", Objective::Minimize);
    by_hand.add_var(Variable::integer("x", 0.0, 4.0, 3.0));
    by_hand.add_var(Variable::integer("y", 0.0, 4.0, 2.0));
    let row = vec![(0, 1.0), (1, 2.0)];
    by_hand.add_con(Constraint::new("cap_lo", row.clone(), Sense::Ge, 5.0));
    by_hand.add_con(Constraint::new("cap_hi", row, Sense::Le, 8.0));
    let solve = |m: MipInstance| {
        let r = MipSolver::host_baseline(m, MipConfig::default())
            .solve()
            .expect("solve");
        assert_eq!(r.status, MipStatus::Optimal);
        r.objective
    };
    assert_eq!(solve(ranged).to_bits(), solve(by_hand).to_bits());
    assert_eq!(solve(read_mps(text).unwrap()), 6.0);
}

fn roundtrip_identity(m: &gmip::problems::MipInstance) {
    let text = write_mps(m);
    let back =
        read_mps(&text).unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{text}", m.name));
    assert_eq!(*m, back, "{}: write->parse is not the identity", m.name);
}

#[test]
fn writer_parser_roundtrip_is_identity_on_catalog() {
    use gmip::problems::catalog::{figure1_knapsack, textbook_lp, textbook_mip};
    use gmip::problems::generators::{
        bin_packing, facility_location, fixed_charge_flow, generalized_assignment, knapsack,
        random_mip, set_cover, unit_commitment, RandomMipConfig,
    };
    let mut catalog = vec![
        figure1_knapsack(),
        textbook_lp(),
        textbook_mip(),
        knapsack(15, 0.5, 1),
        set_cover(8, 6, 0.4, 2),
        bin_packing(6, 1.0, 3),
        unit_commitment(3, 3, 4),
        generalized_assignment(3, 4, 5),
        facility_location(5, 3, 2.5, 6),
        fixed_charge_flow(5, 3, 4.0, 7),
    ];
    for seed in 0..4u64 {
        catalog.push(random_mip(&RandomMipConfig {
            rows: 6,
            cols: 9,
            seed,
            ..Default::default()
        }));
    }
    for m in &catalog {
        roundtrip_identity(m);
    }
}

#[test]
fn exotic_names_roundtrip_identity() {
    // Free-format MPS delimits fields by whitespace only, so any
    // non-whitespace bytes are legal names — including names longer than
    // the writer's 10-column padding, which must still be separated from
    // the following field.
    use gmip::problems::{Constraint, MipInstance, Objective, Sense, Variable};
    let mut m = MipInstance::new("exotic#names@µ", Objective::Maximize);
    m.add_var(Variable::binary("x#1@µ", 3.0));
    m.add_var(Variable::continuous("a[0].b", 0.0, 2.5, 1.0));
    m.add_var(Variable::integer(
        "a_very_long_variable_name_over_ten_columns",
        0.0,
        7.0,
        2.0,
    ));
    m.add_con(Constraint::new(
        "row/with:long_name_exceeding_padding",
        vec![(0, 1.0), (1, 0.5), (2, 1.25)],
        Sense::Le,
        4.0,
    ));
    m.add_con(Constraint::new(
        "c=2",
        vec![(0, 2.0), (2, 1.0)],
        Sense::Ge,
        1.0,
    ));
    roundtrip_identity(&m);
}

#[test]
fn free_row_objective_name_is_accepted() {
    // The objective row may carry any name; the parser keys on the N
    // sense, not on the literal "OBJ".
    let text = "\
NAME          freerow
ROWS
 N  COST
 L  CAP
COLUMNS
    X1        COST      3.0   CAP       1.0
    X2        COST      5.0   CAP       2.0
RHS
    RHS       CAP       2.0
BOUNDS
 UP BND       X1        1.0
 UP BND       X2        1.0
ENDATA
";
    let m = read_mps(text).expect("free-row objective must parse");
    assert_eq!(m.num_vars(), 2);
    assert_eq!(m.num_cons(), 1);
    assert_eq!(m.vars[0].obj, 3.0);
    assert_eq!(m.vars[1].obj, 5.0);
    assert_eq!(m.cons[0].rhs, 2.0);
}

#[test]
fn marker_lines_require_quoted_marker_keyword() {
    // A column literally named MARKER must not be mistaken for an
    // integrality marker, and a marker without INTORG/INTEND is an error.
    let ok = "\
NAME t
ROWS
 N  OBJ
 L  R1
COLUMNS
    MARKER    OBJ       1.0   R1        1.0
RHS
    RHS       R1        1.0
ENDATA
";
    let m = read_mps(ok).expect("column named MARKER must parse as data");
    assert_eq!(m.num_vars(), 1);
    assert_eq!(m.vars[0].name, "MARKER");

    let bad = "\
NAME t
ROWS
 N  OBJ
COLUMNS
    M1        'MARKER'  'WHATEVER'
ENDATA
";
    assert!(
        read_mps(bad).is_err(),
        "MARKER without INTORG/INTEND must be rejected"
    );
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// `last` reshapes the last column: bit 0 makes it a general integer
    /// (else continuous), bit 1 drops its lower bound to -∞, bit 2 lifts its
    /// upper bound to +∞ — the bounds the reader's defaults would replace
    /// without `MI` / `PL` / `FR` lines.
    #[test]
    fn random_mip_roundtrips_identically(
        rows in 1usize..8,
        cols in 2usize..10,
        density in 0.2f64..1.0,
        integral_fraction in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        last in 0u8..8,
    ) {
        use gmip::problems::generators::{random_mip, RandomMipConfig};
        use gmip::problems::VarType;
        let mut m = random_mip(&RandomMipConfig { rows, cols, density, integral_fraction, seed });
        let v = m.vars.last_mut().expect("cols >= 2");
        v.ty = if last & 1 == 1 { VarType::Integer } else { VarType::Continuous };
        if last & 2 == 2 {
            v.lb = f64::NEG_INFINITY;
        }
        if last & 4 == 4 {
            v.ub = f64::INFINITY;
        }
        let back = read_mps(&write_mps(&m)).expect("reparse");
        prop_assert_eq!(m, back);
    }
}
