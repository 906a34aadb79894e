//! Expression evaluation: arithmetic, comparisons and the builtin `f_*`
//! functions used by NDlog programs, over values a compiled strand
//! resolved from its slots.
//!
//! The builtins cover what the paper's programs need — path-vector
//! construction and inspection (`f_cons`, `f_append`, `f_concat`,
//! `f_member`, `f_size`, `f_first`, `f_last`) — plus a handful of numeric
//! helpers.

use ndlog_lang::{BinOp, Value};
use std::fmt;

/// Errors raised while evaluating expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A referenced variable is not bound.
    UnboundVariable(String),
    /// An operator was applied to operands of the wrong type.
    TypeMismatch {
        /// What was being evaluated.
        context: String,
    },
    /// An unknown builtin function was called.
    UnknownFunction(String),
    /// A builtin was called with the wrong number of arguments.
    WrongArity {
        /// Function name.
        function: String,
        /// Expected argument count.
        expected: usize,
        /// Actual argument count.
        found: usize,
    },
    /// Division by zero.
    DivisionByZero,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
            EvalError::TypeMismatch { context } => write!(f, "type mismatch in {context}"),
            EvalError::UnknownFunction(n) => write!(f, "unknown function {n}"),
            EvalError::WrongArity {
                function,
                expected,
                found,
            } => write!(f, "{function} expects {expected} arguments, got {found}"),
            EvalError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for EvalError {}

/// Apply a binary operator. Arithmetic on two integers stays an integer
/// when the result is integral.
pub(crate) fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EvalError> {
    use BinOp::*;
    match op {
        Add | Sub | Mul | Div => {
            let (a, b) = numeric_pair(op, l, r)?;
            let result = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    a / b
                }
                _ => unreachable!(),
            };
            // Preserve integer typing when both operands were integers and
            // the result is integral.
            if matches!((l, r), (Value::Int(_), Value::Int(_))) && result.fract() == 0.0 {
                Ok(Value::Int(result as i64))
            } else {
                Ok(Value::Float(result))
            }
        }
        Eq => Ok(Value::Bool(l == r)),
        Ne => Ok(Value::Bool(l != r)),
        Lt => Ok(Value::Bool(l < r)),
        Le => Ok(Value::Bool(l <= r)),
        Gt => Ok(Value::Bool(l > r)),
        Ge => Ok(Value::Bool(l >= r)),
        And | Or => {
            let (Value::Bool(a), Value::Bool(b)) = (l, r) else {
                return Err(EvalError::TypeMismatch {
                    context: format!("logical operator {}", op.symbol()),
                });
            };
            Ok(Value::Bool(if op == And { *a && *b } else { *a || *b }))
        }
    }
}

fn numeric_pair(op: BinOp, l: &Value, r: &Value) -> Result<(f64, f64), EvalError> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(EvalError::TypeMismatch {
            context: format!("arithmetic operator {}", op.symbol()),
        }),
    }
}

/// Evaluate a builtin function. Builtin names may be written with or
/// without the `f_` prefix.
pub fn eval_builtin<'a>(name: &str, args: &'a [Value]) -> Result<Value, EvalError> {
    let short = name.strip_prefix("f_").unwrap_or(name);
    let arity = |expected: usize| -> Result<(), EvalError> {
        if args.len() == expected {
            Ok(())
        } else {
            Err(EvalError::WrongArity {
                function: name.to_string(),
                expected,
                found: args.len(),
            })
        }
    };
    // Lists are read in place; the error string exists only on failure.
    let as_list = |v: &'a Value| {
        v.as_list().ok_or_else(|| EvalError::TypeMismatch {
            context: format!("{name} expects a list argument"),
        })
    };
    // A list a builtin builds shares the list it extends: one node per
    // element added, whatever the length.
    match short {
        // f_cons(x, list) -> [x | list]
        "cons" | "concatPath" => {
            arity(2)?;
            Ok(Value::List(as_list(&args[1])?.cons(args[0].clone())))
        }
        // f_append(list, x) -> list ++ [x]
        "append" => {
            arity(2)?;
            Ok(Value::List(as_list(&args[0])?.snoc(args[1].clone())))
        }
        // f_concat(list, list) -> list ++ list
        "concat" => {
            arity(2)?;
            Ok(Value::List(as_list(&args[0])?.concat(as_list(&args[1])?)))
        }
        // f_member(list, x) -> 1 if x in list else 0
        "member" => {
            arity(2)?;
            let list = as_list(&args[0])?;
            Ok(Value::Int(i64::from(list.contains(&args[1]))))
        }
        // f_size(list) -> length
        "size" => {
            arity(1)?;
            Ok(Value::Int(as_list(&args[0])?.len() as i64))
        }
        // f_first(list) / f_last(list)
        "first" => {
            arity(1)?;
            let first = as_list(&args[0])?.first().cloned();
            first.ok_or_else(|| EvalError::TypeMismatch {
                context: "f_first of empty list".into(),
            })
        }
        "last" => {
            arity(1)?;
            let last = as_list(&args[0])?.last().cloned();
            last.ok_or_else(|| EvalError::TypeMismatch {
                context: "f_last of empty list".into(),
            })
        }
        // f_min(a, b) / f_max(a, b) on scalars
        "min" => {
            arity(2)?;
            Ok(if args[0] <= args[1] {
                args[0].clone()
            } else {
                args[1].clone()
            })
        }
        "max" => {
            arity(2)?;
            Ok(if args[0] >= args[1] {
                args[0].clone()
            } else {
                args[1].clone()
            })
        }
        _ => Err(EvalError::UnknownFunction(name.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_preserves_integer_type() {
        let (two, three) = (Value::Int(2), Value::Int(3));
        assert_eq!(eval_binop(BinOp::Add, &two, &three), Ok(Value::Int(5)));
        let half = Value::Float(0.5);
        assert_eq!(eval_binop(BinOp::Add, &two, &half), Ok(Value::Float(2.5)));
        assert_eq!(eval_binop(BinOp::Div, &three, &two), Ok(Value::Float(1.5)));
    }

    #[test]
    fn division_by_zero_errors() {
        assert_eq!(
            eval_binop(BinOp::Div, &Value::Int(1), &Value::Int(0)),
            Err(EvalError::DivisionByZero)
        );
    }

    #[test]
    fn comparisons_and_booleans() {
        let lt = eval_binop(BinOp::Lt, &Value::Float(3.0), &Value::Int(5)).unwrap();
        assert_eq!(lt, Value::Bool(true));
        let no = Value::Bool(false);
        assert_eq!(eval_binop(BinOp::And, &lt, &no), Ok(Value::Bool(false)));
        assert_eq!(eval_binop(BinOp::Or, &no, &lt), Ok(Value::Bool(true)));
        assert!(eval_binop(BinOp::And, &lt, &Value::Int(1)).is_err());
    }
    #[test]
    fn path_vector_builtins() {
        let a0 = Value::addr(0u32);
        let a1 = Value::addr(1u32);
        let a2 = Value::addr(2u32);
        // f_cons(a0, f_cons(a1, nil)) = [a0, a1]
        let l = eval_builtin("f_cons", &[a1.clone(), Value::nil()]).unwrap();
        let l = eval_builtin("f_cons", &[a0.clone(), l]).unwrap();
        assert_eq!(l, Value::list(vec![a0.clone(), a1.clone()]));
        // append / concat
        let l2 = eval_builtin("f_append", &[l.clone(), a2.clone()]).unwrap();
        assert_eq!(l2.as_list().unwrap().len(), 3);
        let l3 = eval_builtin("f_concat", &[l.clone(), l.clone()]).unwrap();
        assert_eq!(l3.as_list().unwrap().len(), 4);
        // member / size / first / last
        assert_eq!(
            eval_builtin("f_member", &[l.clone(), a1.clone()]).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            eval_builtin("f_member", &[l.clone(), a2.clone()]).unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            eval_builtin("f_size", std::slice::from_ref(&l)).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            eval_builtin("f_first", std::slice::from_ref(&l)).unwrap(),
            a0
        );
        assert_eq!(eval_builtin("f_last", &[l]).unwrap(), a1);
    }

    #[test]
    fn concat_path_alias() {
        // The paper's f_concatPath behaves like cons of the new hop onto
        // the existing path vector.
        let l = eval_builtin("f_concatPath", &[Value::addr(5u32), Value::nil()]).unwrap();
        assert_eq!(l, Value::list(vec![Value::addr(5u32)]));
    }

    #[test]
    fn scalar_min_max() {
        assert_eq!(
            eval_builtin("f_min", &[Value::Int(3), Value::Float(2.5)]).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            eval_builtin("f_max", &[Value::Int(3), Value::Float(2.5)]).unwrap(),
            Value::Int(3)
        );
    }

    #[test]
    fn builtin_errors() {
        assert!(matches!(
            eval_builtin("f_nonsense", &[]),
            Err(EvalError::UnknownFunction(_))
        ));
        assert!(matches!(
            eval_builtin("f_size", &[Value::Int(1), Value::Int(2)]),
            Err(EvalError::WrongArity { .. })
        ));
        assert!(matches!(
            eval_builtin("f_size", &[Value::Int(1)]),
            Err(EvalError::TypeMismatch { .. })
        ));
        assert!(matches!(
            eval_builtin("f_first", &[Value::nil()]),
            Err(EvalError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nested_call_evaluation() {
        let p2 = Value::list(vec![Value::addr(2u32), Value::addr(3u32)]);
        let v = eval_builtin("f_cons", &[Value::addr(1u32), p2]).unwrap();
        assert_eq!(v.as_list().unwrap().len(), 3);
        assert_eq!(v.as_list().unwrap().first(), Some(&Value::addr(1u32)));
    }

    #[test]
    fn error_display() {
        assert!(EvalError::UnboundVariable("X".into())
            .to_string()
            .contains("X"));
        assert!(EvalError::DivisionByZero.to_string().contains("zero"));
    }
}
