//! Builtin function library: type signatures and evaluation.
//!
//! DDlog pairs its relational core with a procedural library for string
//! processing, arithmetic helpers, and container manipulation (§4.1 of the
//! paper: "a powerful procedural language ... string processing, regular
//! expressions, iteration"). This module provides the equivalent library
//! for our dialect. All functions are pure.

use std::sync::Arc;

use crate::error::{Error, Phase, Pos, Result};
use crate::types::Type;
use crate::value::{mask_to_width, Value, F64};

/// Type-check a call to builtin `name` with argument types `args`.
/// Returns the result type.
pub fn check_call(name: &str, args: &[Type], pos: Pos) -> Result<Type> {
    let err = |msg: String| -> Result<Type> { Err(Error::at(Phase::Type, pos, msg)) };
    let want = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(Error::at(
                Phase::Type,
                pos,
                format!("`{name}` expects {n} argument(s), got {}", args.len()),
            ))
        }
    };
    match name {
        // ---- strings -------------------------------------------------
        "string_len" => {
            want(1)?;
            expect_ty(name, &args[0], &Type::Str, pos)?;
            Ok(Type::Int)
        }
        "string_contains" | "string_starts_with" | "string_ends_with" => {
            want(2)?;
            expect_ty(name, &args[0], &Type::Str, pos)?;
            expect_ty(name, &args[1], &Type::Str, pos)?;
            Ok(Type::Bool)
        }
        "string_substr" => {
            want(3)?;
            expect_ty(name, &args[0], &Type::Str, pos)?;
            expect_int(name, &args[1], pos)?;
            expect_int(name, &args[2], pos)?;
            Ok(Type::Str)
        }
        "to_lowercase" | "to_uppercase" | "string_trim" | "string_reverse" => {
            want(1)?;
            expect_ty(name, &args[0], &Type::Str, pos)?;
            Ok(Type::Str)
        }
        "string_split" => {
            want(2)?;
            expect_ty(name, &args[0], &Type::Str, pos)?;
            expect_ty(name, &args[1], &Type::Str, pos)?;
            Ok(Type::Vec(Box::new(Type::Str)))
        }
        "string_join" => {
            want(2)?;
            expect_ty(name, &args[0], &Type::Vec(Box::new(Type::Str)), pos)?;
            expect_ty(name, &args[1], &Type::Str, pos)?;
            Ok(Type::Str)
        }
        "to_string" => {
            want(1)?;
            Ok(Type::Str)
        }
        "parse_int" => {
            want(1)?;
            expect_ty(name, &args[0], &Type::Str, pos)?;
            Ok(Type::Int)
        }
        "hex" => {
            want(1)?;
            expect_int(name, &args[0], pos)?;
            Ok(Type::Str)
        }
        // ---- numeric -------------------------------------------------
        "abs" => {
            want(1)?;
            if !args[0].is_numeric() {
                return err(format!("`abs` needs a numeric argument, got {}", args[0]));
            }
            Ok(args[0].clone())
        }
        "min" | "max" => {
            want(2)?;
            let t = args[0].unify(&args[1]).ok_or_else(|| {
                Error::at(
                    Phase::Type,
                    pos,
                    format!(
                        "`{name}` arguments must have the same type, got {} and {}",
                        args[0], args[1]
                    ),
                )
            })?;
            Ok(t)
        }
        "pow" => {
            want(2)?;
            expect_int(name, &args[0], pos)?;
            expect_int(name, &args[1], pos)?;
            Ok(args[0].clone())
        }
        "hash64" => {
            want(1)?;
            Ok(Type::Bit(64))
        }
        // ---- containers ------------------------------------------------
        "vec_len" => {
            want(1)?;
            match &args[0] {
                Type::Vec(_) => Ok(Type::Int),
                t => err(format!("`vec_len` needs Vec, got {t}")),
            }
        }
        "vec_contains" => {
            want(2)?;
            match &args[0] {
                Type::Vec(e) if e.compatible(&args[1]) => Ok(Type::Bool),
                t => err(format!("`vec_contains` needs Vec<{}>, got {t}", args[1])),
            }
        }
        "vec_push" => {
            want(2)?;
            match &args[0] {
                Type::Vec(e) => {
                    let u = e.unify(&args[1]).ok_or_else(|| {
                        Error::at(
                            Phase::Type,
                            pos,
                            "vec_push element type mismatch".to_string(),
                        )
                    })?;
                    Ok(Type::Vec(Box::new(u)))
                }
                t => err(format!("`vec_push` needs Vec, got {t}")),
            }
        }
        "set_len" => {
            want(1)?;
            match &args[0] {
                Type::Set(_) => Ok(Type::Int),
                t => err(format!("`set_len` needs Set, got {t}")),
            }
        }
        "set_contains" => {
            want(2)?;
            match &args[0] {
                Type::Set(e) if e.compatible(&args[1]) => Ok(Type::Bool),
                t => err(format!("`set_contains` needs Set<{}>, got {t}", args[1])),
            }
        }
        "set_to_vec" => {
            want(1)?;
            match &args[0] {
                Type::Set(e) => Ok(Type::Vec(e.clone())),
                t => err(format!("`set_to_vec` needs Set, got {t}")),
            }
        }
        "map_contains_key" => {
            want(2)?;
            match &args[0] {
                Type::Map(k, _) if k.compatible(&args[1]) => Ok(Type::Bool),
                t => err(format!(
                    "`map_contains_key` needs Map with key {}, got {t}",
                    args[1]
                )),
            }
        }
        "map_get_or" => {
            want(3)?;
            match &args[0] {
                Type::Map(k, v) if k.compatible(&args[1]) => {
                    let u = v.unify(&args[2]).ok_or_else(|| {
                        Error::at(
                            Phase::Type,
                            pos,
                            "map_get_or default type mismatch".to_string(),
                        )
                    })?;
                    Ok(u)
                }
                t => err(format!(
                    "`map_get_or` needs Map with key {}, got {t}",
                    args[1]
                )),
            }
        }
        "tuple_nth" => {
            // tuple_nth(t, i) with a literal index is resolved by the type
            // checker directly; reaching here means the index was dynamic.
            err("`tuple_nth` requires a literal index".to_string())
        }
        _ => err(format!("unknown function `{name}`")),
    }
}

fn expect_ty(name: &str, got: &Type, want: &Type, pos: Pos) -> Result<()> {
    if got.compatible(want) {
        Ok(())
    } else {
        Err(Error::at(
            Phase::Type,
            pos,
            format!("`{name}`: expected {want}, got {got}"),
        ))
    }
}

fn expect_int(name: &str, got: &Type, pos: Pos) -> Result<()> {
    if got.is_integral() {
        Ok(())
    } else {
        Err(Error::at(
            Phase::Type,
            pos,
            format!("`{name}`: expected an integer type, got {got}"),
        ))
    }
}

/// Evaluate builtin `name` on `args`. Types were already checked; any
/// residual mismatch is an internal error.
pub fn eval_call(name: &str, args: &[Value]) -> Result<Value> {
    let ierr = || Error::new(Phase::Eval, format!("internal: bad args for `{name}`"));
    Ok(match name {
        "string_len" => Value::Int(args[0].as_str().ok_or_else(ierr)?.chars().count() as i128),
        "string_contains" => {
            let (s, sub) = two_strs(args).ok_or_else(ierr)?;
            Value::Bool(s.contains(sub))
        }
        "string_starts_with" => {
            let (s, sub) = two_strs(args).ok_or_else(ierr)?;
            Value::Bool(s.starts_with(sub))
        }
        "string_ends_with" => {
            let (s, sub) = two_strs(args).ok_or_else(ierr)?;
            Value::Bool(s.ends_with(sub))
        }
        "string_substr" => {
            let s = args[0].as_str().ok_or_else(ierr)?;
            let start = args[1].as_i128().ok_or_else(ierr)?.max(0) as usize;
            let end = args[2].as_i128().ok_or_else(ierr)?.max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = end.min(chars.len());
            let start = start.min(end);
            Value::str(chars[start..end].iter().collect::<String>())
        }
        "to_lowercase" => Value::str(args[0].as_str().ok_or_else(ierr)?.to_lowercase()),
        "to_uppercase" => Value::str(args[0].as_str().ok_or_else(ierr)?.to_uppercase()),
        "string_trim" => Value::str(args[0].as_str().ok_or_else(ierr)?.trim()),
        "string_reverse" => Value::str(
            args[0]
                .as_str()
                .ok_or_else(ierr)?
                .chars()
                .rev()
                .collect::<String>(),
        ),
        "string_split" => {
            let (s, sep) = two_strs(args).ok_or_else(ierr)?;
            Value::vec(s.split(sep).map(Value::str).collect())
        }
        "string_join" => {
            let v = match &args[0] {
                Value::Vec(v) => v,
                _ => return Err(ierr()),
            };
            let sep = args[1].as_str().ok_or_else(ierr)?;
            let parts: Vec<&str> = v.iter().filter_map(Value::as_str).collect();
            Value::str(parts.join(sep))
        }
        "to_string" => match &args[0] {
            // Strings stringify without quotes, unlike their Display form.
            Value::Str(s) => Value::Str(s.clone()),
            other => Value::str(other.to_string()),
        },
        "parse_int" => Value::Int(
            args[0]
                .as_str()
                .ok_or_else(ierr)?
                .trim()
                .parse::<i128>()
                .unwrap_or(0),
        ),
        "hex" => {
            let v = args[0].as_u128().ok_or_else(ierr)?;
            Value::str(format!("{v:x}"))
        }
        "abs" => match &args[0] {
            Value::Int(i) => Value::Int(i.wrapping_abs()),
            Value::Double(d) => Value::Double(F64(d.0.abs())),
            b @ Value::Bit { .. } => b.clone(),
            _ => return Err(ierr()),
        },
        "min" => std::cmp::min(&args[0], &args[1]).clone(),
        "max" => std::cmp::max(&args[0], &args[1]).clone(),
        "pow" => {
            let b = args[0].clone();
            let e = args[1].as_u128().ok_or_else(ierr)? as u32;
            match b {
                Value::Int(b) => Value::Int(b.wrapping_pow(e)),
                Value::Bit { width, val } => Value::Bit {
                    width,
                    val: mask_to_width(val.wrapping_pow(e), width),
                },
                _ => return Err(ierr()),
            }
        }
        "hash64" => {
            // FNV-1a over the value's display form: deterministic across
            // runs and platforms, which matters for reproducible benches.
            let s = args[0].to_string();
            let mut h: u64 = 0xcbf29ce484222325;
            for b in s.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
            Value::Bit {
                width: 64,
                val: h as u128,
            }
        }
        "vec_len" => match &args[0] {
            Value::Vec(v) => Value::Int(v.len() as i128),
            _ => return Err(ierr()),
        },
        "vec_contains" => match &args[0] {
            Value::Vec(v) => Value::Bool(v.contains(&args[1])),
            _ => return Err(ierr()),
        },
        "vec_push" => match &args[0] {
            Value::Vec(v) => {
                let mut v2 = (**v).clone();
                v2.push(args[1].clone());
                Value::Vec(Arc::new(v2))
            }
            _ => return Err(ierr()),
        },
        "set_len" => match &args[0] {
            Value::Set(s) => Value::Int(s.len() as i128),
            _ => return Err(ierr()),
        },
        "set_contains" => match &args[0] {
            Value::Set(s) => Value::Bool(s.contains(&args[1])),
            _ => return Err(ierr()),
        },
        "set_to_vec" => match &args[0] {
            Value::Set(s) => Value::vec(s.iter().cloned().collect()),
            _ => return Err(ierr()),
        },
        "map_contains_key" => match &args[0] {
            Value::Map(m) => Value::Bool(m.contains_key(&args[1])),
            _ => return Err(ierr()),
        },
        "map_get_or" => match &args[0] {
            Value::Map(m) => m.get(&args[1]).cloned().unwrap_or_else(|| args[2].clone()),
            _ => return Err(ierr()),
        },
        other => {
            return Err(Error::new(
                Phase::Eval,
                format!("unknown function `{other}`"),
            ))
        }
    })
}

fn two_strs(args: &[Value]) -> Option<(&str, &str)> {
    Some((args[0].as_str()?, args[1].as_str()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Pos;

    fn p() -> Pos {
        Pos { line: 1, col: 1 }
    }

    #[test]
    fn string_functions() {
        assert_eq!(
            eval_call("string_len", &[Value::str("héllo")]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_call("string_split", &[Value::str("a,b,c"), Value::str(",")]).unwrap(),
            Value::vec(vec![Value::str("a"), Value::str("b"), Value::str("c")])
        );
        assert_eq!(
            eval_call(
                "string_join",
                &[
                    Value::vec(vec![Value::str("a"), Value::str("b")]),
                    Value::str("-")
                ]
            )
            .unwrap(),
            Value::str("a-b")
        );
        assert_eq!(
            eval_call(
                "string_substr",
                &[Value::str("hello"), Value::Int(1), Value::Int(3)]
            )
            .unwrap(),
            Value::str("el")
        );
        // Out-of-range substr clamps instead of panicking.
        assert_eq!(
            eval_call(
                "string_substr",
                &[Value::str("hi"), Value::Int(5), Value::Int(9)]
            )
            .unwrap(),
            Value::str("")
        );
    }

    #[test]
    fn to_string_of_string_unquoted() {
        assert_eq!(
            eval_call("to_string", &[Value::str("x")]).unwrap(),
            Value::str("x")
        );
        assert_eq!(
            eval_call("to_string", &[Value::Int(5)]).unwrap(),
            Value::str("5")
        );
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(eval_call("abs", &[Value::Int(-5)]).unwrap(), Value::Int(5));
        assert_eq!(
            eval_call("min", &[Value::Int(3), Value::Int(7)]).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            eval_call("pow", &[Value::bit(8, 2), Value::Int(10)]).unwrap(),
            Value::bit(8, 0) // 1024 masked to 8 bits
        );
        assert_eq!(
            eval_call("parse_int", &[Value::str(" 42 ")]).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            eval_call("parse_int", &[Value::str("zap")]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn hash_is_deterministic() {
        let a = eval_call("hash64", &[Value::str("port1")]).unwrap();
        let b = eval_call("hash64", &[Value::str("port1")]).unwrap();
        let c = eval_call("hash64", &[Value::str("port2")]).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn container_functions() {
        let v = Value::vec(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(
            eval_call("vec_len", std::slice::from_ref(&v)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_call("vec_contains", &[v.clone(), Value::Int(2)]).unwrap(),
            Value::Bool(true)
        );
        let v3 = eval_call("vec_push", &[v, Value::Int(3)]).unwrap();
        assert_eq!(eval_call("vec_len", &[v3]).unwrap(), Value::Int(3));

        let m = Value::map(vec![(Value::str("k"), Value::Int(9))]);
        assert_eq!(
            eval_call("map_get_or", &[m.clone(), Value::str("k"), Value::Int(0)]).unwrap(),
            Value::Int(9)
        );
        assert_eq!(
            eval_call("map_get_or", &[m, Value::str("nope"), Value::Int(0)]).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn signatures() {
        assert_eq!(
            check_call("string_len", &[Type::Str], p()).unwrap(),
            Type::Int
        );
        assert!(check_call("string_len", &[Type::Int], p()).is_err());
        assert!(check_call("string_len", &[Type::Str, Type::Str], p()).is_err());
        assert!(check_call("no_such_fn", &[], p()).is_err());
        assert_eq!(
            check_call("min", &[Type::Bit(8), Type::Bit(8)], p()).unwrap(),
            Type::Bit(8)
        );
        assert!(check_call("min", &[Type::Bit(8), Type::Str], p()).is_err());
        assert_eq!(
            check_call("hash64", &[Type::Str], p()).unwrap(),
            Type::Bit(64)
        );
    }
}
