//! MPS-subset reader and writer.
//!
//! Covers the fixed sections used by MIPLIB-style files: `NAME`, `ROWS`,
//! `COLUMNS` (with `MARKER`/`INTORG`/`INTEND` integrality markers), `RHS`,
//! `BOUNDS` (`UP`, `LO`, `FX`, `BV`, `MI`, `PL`, `FR`), `OBJSENSE`, and
//! `ENDATA`. Free-format (whitespace-separated) parsing; ranges and
//! negative-row types are not supported and are reported as errors rather
//! than silently dropped.

use crate::instance::{Constraint, MipInstance, Objective, Sense, VarType, Variable};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from MPS parsing.
#[derive(Debug, Clone, PartialEq)]
pub enum MpsError {
    /// A line could not be interpreted in the current section.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The file ended before `ENDATA`.
    UnexpectedEof,
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::Parse { line, message } => write!(f, "MPS line {line}: {message}"),
            MpsError::UnexpectedEof => write!(f, "MPS file ended before ENDATA"),
        }
    }
}

impl std::error::Error for MpsError {}

/// Serializes an instance to MPS text.
pub fn write_mps(m: &MipInstance) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "NAME          {}", m.name);
    let _ = writeln!(out, "OBJSENSE");
    let _ = writeln!(
        out,
        "    {}",
        match m.objective {
            Objective::Maximize => "MAX",
            Objective::Minimize => "MIN",
        }
    );
    let _ = writeln!(out, "ROWS");
    let _ = writeln!(out, " N  OBJ");
    for c in &m.cons {
        let tag = match c.sense {
            Sense::Le => 'L',
            Sense::Ge => 'G',
            Sense::Eq => 'E',
        };
        let _ = writeln!(out, " {tag}  {}", c.name);
    }
    let _ = writeln!(out, "COLUMNS");
    // Per-column entries: objective then constraint coefficients.
    let mut by_col: Vec<Vec<(String, f64)>> = vec![Vec::new(); m.num_vars()];
    for (j, v) in m.vars.iter().enumerate() {
        if v.obj != 0.0 {
            by_col[j].push(("OBJ".to_string(), v.obj));
        }
    }
    for c in &m.cons {
        for &(j, v) in &c.coeffs {
            by_col[j].push((c.name.clone(), v));
        }
    }
    let mut in_int = false;
    for (j, v) in m.vars.iter().enumerate() {
        let want_int = v.ty.is_integral();
        if want_int && !in_int {
            let _ = writeln!(
                out,
                "    MARKER                 'MARKER'                 'INTORG'"
            );
            in_int = true;
        }
        if !want_int && in_int {
            let _ = writeln!(
                out,
                "    MARKER                 'MARKER'                 'INTEND'"
            );
            in_int = false;
        }
        for (row, val) in &by_col[j] {
            let _ = writeln!(out, "    {:<10} {:<10} {}", v.name, row, val);
        }
        if by_col[j].is_empty() {
            // Emit a zero objective entry so the column (variable) exists.
            let _ = writeln!(out, "    {:<10} {:<10} 0", v.name, "OBJ");
        }
    }
    if in_int {
        let _ = writeln!(
            out,
            "    MARKER                 'MARKER'                 'INTEND'"
        );
    }
    let _ = writeln!(out, "RHS");
    for c in &m.cons {
        if c.rhs != 0.0 {
            let _ = writeln!(out, "    RHS       {:<10} {}", c.name, c.rhs);
        }
    }
    let _ = writeln!(out, "BOUNDS");
    for v in &m.vars {
        match v.ty {
            VarType::Binary => {
                let _ = writeln!(out, " BV BND       {}", v.name);
            }
            _ => {
                // A missing bound reads back as the default: lb 0, and ub +∞
                // for a continuous column but 1 inside INTORG markers.
                let (lb_inf, ub_inf) = (v.lb == f64::NEG_INFINITY, v.ub == f64::INFINITY);
                if v.lb == v.ub {
                    let _ = writeln!(out, " FX BND       {:<10} {}", v.name, v.lb);
                } else if lb_inf && ub_inf {
                    let _ = writeln!(out, " FR BND       {}", v.name);
                } else {
                    if lb_inf {
                        let _ = writeln!(out, " MI BND       {}", v.name);
                    } else if v.lb != 0.0 && v.lb.is_finite() {
                        let _ = writeln!(out, " LO BND       {:<10} {}", v.name, v.lb);
                    }
                    if v.ub.is_finite() {
                        let _ = writeln!(out, " UP BND       {:<10} {}", v.name, v.ub);
                    } else if ub_inf && v.ty.is_integral() {
                        let _ = writeln!(out, " PL BND       {}", v.name);
                    }
                }
            }
        }
    }
    let _ = writeln!(out, "ENDATA");
    out
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    ObjSense,
    Rows,
    Columns,
    Rhs,
    Ranges,
    Bounds,
}

/// Parses MPS text into an instance.
pub fn read_mps(text: &str) -> Result<MipInstance, MpsError> {
    let mut name = String::from("unnamed");
    let mut objective = Objective::Minimize; // MPS default
    let mut section = Section::None;
    // Row name -> (sense or objective marker).
    let mut row_order: Vec<(String, Option<Sense>)> = Vec::new();
    let mut row_index: HashMap<String, usize> = HashMap::new();
    // Column name -> index; collected coefficients.
    let mut col_index: HashMap<String, usize> = HashMap::new();
    let mut cols: Vec<(String, bool)> = Vec::new(); // (name, integral)
    let mut obj_coeffs: HashMap<usize, f64> = HashMap::new();
    let mut entries: Vec<(usize, usize, f64)> = Vec::new(); // (row, col, value)
    let mut rhs: HashMap<usize, f64> = HashMap::new();
    let mut ranges: HashMap<usize, f64> = HashMap::new();
    let mut bounds: HashMap<usize, (Option<f64>, Option<f64>, bool)> = HashMap::new(); // (lb, ub, binary)
    let mut in_int = false;
    let mut saw_endata = false;

    let err = |line: usize, message: String| MpsError::Parse { line, message };

    for (lineno0, raw) in text.lines().enumerate() {
        let lineno = lineno0 + 1;
        if raw.trim().is_empty() || raw.starts_with('*') {
            continue;
        }
        let is_header = !raw.starts_with(' ') && !raw.starts_with('\t');
        let fields: Vec<&str> = raw.split_whitespace().collect();
        if is_header {
            match fields[0] {
                "NAME" => {
                    if fields.len() > 1 {
                        name = fields[1].to_string();
                    }
                    section = Section::None;
                }
                "OBJSENSE" => section = Section::ObjSense,
                "ROWS" => section = Section::Rows,
                "COLUMNS" => section = Section::Columns,
                "RHS" => section = Section::Rhs,
                "BOUNDS" => section = Section::Bounds,
                "RANGES" => section = Section::Ranges,
                "ENDATA" => {
                    saw_endata = true;
                    break;
                }
                other => return Err(err(lineno, format!("unknown section {other}"))),
            }
            continue;
        }
        match section {
            Section::None => return Err(err(lineno, "data before any section".into())),
            Section::ObjSense => {
                objective = match fields[0].to_ascii_uppercase().as_str() {
                    "MAX" | "MAXIMIZE" => Objective::Maximize,
                    "MIN" | "MINIMIZE" => Objective::Minimize,
                    other => return Err(err(lineno, format!("bad OBJSENSE {other}"))),
                };
            }
            Section::Rows => {
                if fields.len() != 2 {
                    return Err(err(lineno, "ROWS line needs 2 fields".into()));
                }
                let sense = match fields[0] {
                    "N" => None,
                    "L" => Some(Sense::Le),
                    "G" => Some(Sense::Ge),
                    "E" => Some(Sense::Eq),
                    other => return Err(err(lineno, format!("bad row type {other}"))),
                };
                let rname = fields[1].to_string();
                if sense.is_some() {
                    row_index.insert(rname.clone(), row_order.len());
                }
                row_order.push((rname, sense));
            }
            Section::Columns => {
                // Marker detection must match the quoted keyword exactly: a
                // column or row legitimately named e.g. "MARKER_COST" would
                // otherwise be swallowed as a marker line (and `raw.contains`
                // would misfire on names containing INTORG/INTEND too).
                if fields.len() >= 3 && fields[1] == "'MARKER'" {
                    if fields[2..].contains(&"'INTORG'") {
                        in_int = true;
                    } else if fields[2..].contains(&"'INTEND'") {
                        in_int = false;
                    } else {
                        return Err(err(lineno, "MARKER without INTORG/INTEND".into()));
                    }
                    continue;
                }
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(err(lineno, "COLUMNS line needs name + pairs".into()));
                }
                let cname = fields[0];
                let j = *col_index.entry(cname.to_string()).or_insert_with(|| {
                    cols.push((cname.to_string(), in_int));
                    cols.len() - 1
                });
                for pair in fields[1..].chunks(2) {
                    let rname = pair[0];
                    let val: f64 = pair[1]
                        .parse()
                        .map_err(|_| err(lineno, format!("bad value {}", pair[1])))?;
                    if rname == "OBJ" || row_order.iter().any(|(n, s)| n == rname && s.is_none()) {
                        *obj_coeffs.entry(j).or_insert(0.0) += val;
                    } else if let Some(&ri) = row_index.get(rname) {
                        // Row position among constraint rows only.
                        let ci = row_order[..ri].iter().filter(|(_, s)| s.is_some()).count();
                        entries.push((ci, j, val));
                    } else {
                        return Err(err(lineno, format!("unknown row {rname}")));
                    }
                }
            }
            Section::Rhs | Section::Ranges => {
                let what = if section == Section::Rhs {
                    "RHS"
                } else {
                    "RANGES"
                };
                if fields.len() < 3 || fields.len().is_multiple_of(2) {
                    return Err(err(lineno, format!("{what} line needs set name + pairs")));
                }
                for pair in fields[1..].chunks(2) {
                    let rname = pair[0];
                    let val: f64 = pair[1]
                        .parse()
                        .map_err(|_| err(lineno, format!("bad value {}", pair[1])))?;
                    let Some(&ri) = row_index.get(rname) else {
                        return Err(err(lineno, format!("unknown {what} row {rname}")));
                    };
                    let ci = row_order[..ri].iter().filter(|(_, s)| s.is_some()).count();
                    if section == Section::Rhs {
                        rhs.insert(ci, val);
                    } else if val.is_finite() {
                        ranges.insert(ci, val);
                    } else {
                        return Err(err(lineno, format!("range {val} of row {rname}")));
                    }
                }
            }
            Section::Bounds => {
                if fields.len() < 3 {
                    return Err(err(lineno, "BOUNDS line too short".into()));
                }
                let btype = fields[0];
                let vname = fields[2];
                let j = *col_index
                    .get(vname)
                    .ok_or_else(|| err(lineno, format!("unknown column {vname}")))?;
                let slot = bounds.entry(j).or_insert((None, None, false));
                match btype {
                    "UP" => {
                        let v: f64 = fields
                            .get(3)
                            .ok_or_else(|| err(lineno, "UP needs a value".into()))?
                            .parse()
                            .map_err(|_| err(lineno, "bad bound value".into()))?;
                        slot.1 = Some(v);
                    }
                    "LO" => {
                        let v: f64 = fields
                            .get(3)
                            .ok_or_else(|| err(lineno, "LO needs a value".into()))?
                            .parse()
                            .map_err(|_| err(lineno, "bad bound value".into()))?;
                        slot.0 = Some(v);
                    }
                    "FX" => {
                        let v: f64 = fields
                            .get(3)
                            .ok_or_else(|| err(lineno, "FX needs a value".into()))?
                            .parse()
                            .map_err(|_| err(lineno, "bad bound value".into()))?;
                        slot.0 = Some(v);
                        slot.1 = Some(v);
                    }
                    "BV" => slot.2 = true,
                    "MI" => slot.0 = Some(f64::NEG_INFINITY),
                    "PL" => slot.1 = Some(f64::INFINITY),
                    "FR" => (slot.0, slot.1) = (Some(f64::NEG_INFINITY), Some(f64::INFINITY)),
                    other => return Err(err(lineno, format!("bound type {other} unsupported"))),
                }
            }
        }
    }
    if !saw_endata {
        return Err(MpsError::UnexpectedEof);
    }

    // Assemble the instance.
    let mut m = MipInstance::new(name, objective);
    for (j, (cname, integral)) in cols.iter().enumerate() {
        let b = bounds.get(&j).copied().unwrap_or((None, None, false));
        let obj = obj_coeffs.get(&j).copied().unwrap_or(0.0);
        let var = if b.2 {
            Variable::binary(cname.clone(), obj)
        } else if *integral {
            Variable::integer(cname.clone(), b.0.unwrap_or(0.0), b.1.unwrap_or(1.0), obj)
        } else {
            Variable::continuous(
                cname.clone(),
                b.0.unwrap_or(0.0),
                b.1.unwrap_or(f64::INFINITY),
                obj,
            )
        };
        m.add_var(var);
    }
    let con_rows: Vec<(String, Sense)> = row_order
        .into_iter()
        .filter_map(|(n, s)| s.map(|s| (n, s)))
        .collect();
    let mut per_row: Vec<Vec<(usize, f64)>> = vec![Vec::new(); con_rows.len()];
    for (ci, j, v) in entries {
        per_row[ci].push((j, v));
    }
    for (ci, (cname, sense)) in con_rows.into_iter().enumerate() {
        let coeffs = std::mem::take(&mut per_row[ci]);
        let rhs = rhs.get(&ci).copied().unwrap_or(0.0);
        // A ranged row `lo ≤ aᵀx ≤ hi` is a ≥ row and a ≤ row: the
        // standard range rule, and an E row of range 0 stays E.
        let (lo, hi) = match (sense, ranges.get(&ci).copied()) {
            (Sense::Eq, Some(r)) if r > 0.0 => (rhs, rhs + r),
            (Sense::Eq, Some(r)) if r < 0.0 => (rhs + r, rhs),
            (Sense::Le, Some(r)) => (rhs - r.abs(), rhs),
            (Sense::Ge, Some(r)) => (rhs, rhs + r.abs()),
            _ => {
                m.add_con(Constraint::new(cname, coeffs, sense, rhs));
                continue;
            }
        };
        m.add_con(Constraint::new(
            format!("{cname}_lo"),
            coeffs.clone(),
            Sense::Ge,
            lo,
        ));
        m.add_con(Constraint::new(
            format!("{cname}_hi"),
            coeffs,
            Sense::Le,
            hi,
        ));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{knapsack, set_cover, unit_commitment};

    fn roundtrip(m: &MipInstance) -> MipInstance {
        let text = write_mps(m);
        read_mps(&text).unwrap_or_else(|e| panic!("roundtrip failed: {e}\n{text}"))
    }

    fn assert_equivalent(a: &MipInstance, b: &MipInstance) {
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.num_vars(), b.num_vars());
        assert_eq!(a.num_cons(), b.num_cons());
        for (va, vb) in a.vars.iter().zip(&b.vars) {
            assert_eq!(va.name, vb.name);
            assert_eq!(va.ty.is_integral(), vb.ty.is_integral());
            assert_eq!(va.lb, vb.lb, "lb of {}", va.name);
            assert_eq!(va.ub, vb.ub, "ub of {}", va.name);
            assert_eq!(va.obj, vb.obj);
        }
        for (ca, cb) in a.cons.iter().zip(&b.cons) {
            assert_eq!(ca.name, cb.name);
            assert_eq!(ca.sense, cb.sense);
            assert_eq!(ca.rhs, cb.rhs);
            assert_eq!(ca.coeffs, cb.coeffs);
        }
    }

    #[test]
    fn knapsack_roundtrip() {
        let m = knapsack(12, 0.5, 4);
        assert_equivalent(&m, &roundtrip(&m));
    }

    #[test]
    fn setcover_roundtrip() {
        let m = set_cover(8, 6, 0.4, 1);
        assert_equivalent(&m, &roundtrip(&m));
    }

    #[test]
    fn mixed_instance_roundtrip() {
        let m = unit_commitment(2, 2, 3);
        assert_equivalent(&m, &roundtrip(&m));
    }

    #[test]
    fn parse_errors_reported_with_line() {
        let bad = "ROWS\n X  R0\nENDATA\n";
        match read_mps(bad) {
            Err(MpsError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_endata() {
        assert_eq!(
            read_mps("NAME t\nROWS\n N OBJ\n"),
            Err(MpsError::UnexpectedEof)
        );
    }

    /// One row of each kind under `RANGES`, against the model written out
    /// by hand: a ranged row is its ≥ row and its ≤ row.
    #[test]
    fn ranged_rows_split_into_two() {
        let text =
            "NAME t\nOBJSENSE\n    MAX\nROWS\n N  OBJ\n E  e1\n E  e2\n L  l\n G  g\n E  e0\n\
            COLUMNS\n    x  OBJ  1  e1  1\n    x  e2  1  l  1\n    x  g  1  e0  1\n\
            RHS\n    RHS  e1  4  e2  4  l  8\n    RHS  g  1  e0  3\n\
            RANGES\n    RNG  e1  2  e2  -2  l  -3\n    RNG  g  5  e0  0\nENDATA\n";
        let mut by_hand = MipInstance::new("t", Objective::Maximize);
        by_hand.add_var(Variable::continuous("x", 0.0, f64::INFINITY, 1.0));
        for (name, sense, rhs) in [
            ("e1_lo", Sense::Ge, 4.0),
            ("e1_hi", Sense::Le, 6.0),
            ("e2_lo", Sense::Ge, 2.0),
            ("e2_hi", Sense::Le, 4.0),
            ("l_lo", Sense::Ge, 5.0),
            ("l_hi", Sense::Le, 8.0),
            ("g_lo", Sense::Ge, 1.0),
            ("g_hi", Sense::Le, 6.0),
            ("e0", Sense::Eq, 3.0),
        ] {
            by_hand.add_con(Constraint::new(name, vec![(0, 1.0)], sense, rhs));
        }
        assert_equivalent(&read_mps(text).unwrap(), &by_hand);
        // A range must be a number, on a row that exists.
        for bad in ["RNG  e1  inf", "RNG  nope  1", "RNG  e1"] {
            let text = format!("NAME t\nROWS\n N  OBJ\n E  e1\nRANGES\n    {bad}\nENDATA\n");
            assert!(
                matches!(read_mps(&text), Err(MpsError::Parse { line: 6, .. })),
                "{bad}"
            );
        }
    }

    #[test]
    fn objsense_default_is_minimize() {
        let text = "NAME t\nROWS\n N  OBJ\n L  c0\nCOLUMNS\n    x         OBJ       2 c0 1\nRHS\n    RHS       c0        5\nENDATA\n";
        let m = read_mps(text).unwrap();
        assert_eq!(m.objective, Objective::Minimize);
        assert_eq!(m.num_vars(), 1);
        assert_eq!(m.vars[0].obj, 2.0);
        assert_eq!(m.cons[0].rhs, 5.0);
        assert_eq!(m.cons[0].coeffs, vec![(0, 1.0)]);
    }
}
