//! Builtin functions and methods, shared by both execution engines.
//!
//! The tree-walking interpreter ([`crate::interp`]) and the bytecode VM
//! ([`crate::vm`]) must be observationally identical — same results, same
//! output, byte-identical profiles. Builtins tick virtual cost, allocate
//! heap ids, draw random numbers and record accesses, so the safest way to
//! keep the engines aligned is a single implementation generic over a
//! [`Host`] that exposes those effects. Each engine implements `Host`; the
//! builtin bodies below are the only copy of the semantics.

use crate::error::LangError;
use crate::profile::{AccessKind, DynLoc};
use crate::value::{HeapId, ListData, Value};
use std::cell::RefCell;
use std::rc::Rc;

/// The effects a builtin can have on the executing engine.
pub(crate) trait Host {
    /// Add `n` virtual cost units, failing when the step limit is crossed.
    fn tick(&mut self, n: u64) -> Result<(), LangError>;
    /// A runtime error positioned at the currently executing statement.
    fn rt_err(&self, msg: String) -> LangError;
    /// Allocate a fresh heap identity.
    fn fresh_heap(&mut self) -> HeapId;
    /// Next deterministic pseudo-random value in `0..n` (0 when `n <= 0`).
    fn next_rand(&mut self, n: i64) -> i64;
    /// Record a dynamic memory access for loop tracing.
    fn record(&mut self, loc: DynLoc, kind: AccessKind);
    /// Append a line to the program's printed output.
    fn push_output(&mut self, line: String);
}

/// Builtin free functions, resolved from call names at compile time by the
/// VM and at call time by the tree-walker. `from_name` is the single source
/// of truth for which names are builtins.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BuiltinId {
    Print,
    Work,
    Rand,
    Range,
    List,
    Len,
    Str,
    Int,
    Float,
    Abs,
    Sqrt,
    Floor,
    Min,
    Max,
    Pow,
    Assert,
}

impl BuiltinId {
    pub(crate) fn from_name(name: &str) -> Option<BuiltinId> {
        Some(match name {
            "print" => BuiltinId::Print,
            "work" => BuiltinId::Work,
            "rand" => BuiltinId::Rand,
            "range" => BuiltinId::Range,
            "list" => BuiltinId::List,
            "len" => BuiltinId::Len,
            "str" => BuiltinId::Str,
            "int" => BuiltinId::Int,
            "float" => BuiltinId::Float,
            "abs" => BuiltinId::Abs,
            "sqrt" => BuiltinId::Sqrt,
            "floor" => BuiltinId::Floor,
            "min" => BuiltinId::Min,
            "max" => BuiltinId::Max,
            "pow" => BuiltinId::Pow,
            "assert" => BuiltinId::Assert,
            _ => return None,
        })
    }

    pub(crate) fn name(self) -> &'static str {
        match self {
            BuiltinId::Print => "print",
            BuiltinId::Work => "work",
            BuiltinId::Rand => "rand",
            BuiltinId::Range => "range",
            BuiltinId::List => "list",
            BuiltinId::Len => "len",
            BuiltinId::Str => "str",
            BuiltinId::Int => "int",
            BuiltinId::Float => "float",
            BuiltinId::Abs => "abs",
            BuiltinId::Sqrt => "sqrt",
            BuiltinId::Floor => "floor",
            BuiltinId::Min => "min",
            BuiltinId::Max => "max",
            BuiltinId::Pow => "pow",
            BuiltinId::Assert => "assert",
        }
    }
}

fn new_list<H: Host>(h: &mut H, items: Vec<Value>) -> Value {
    let id = h.fresh_heap();
    Value::List(Rc::new(ListData { id, items: RefCell::new(items) }))
}

/// Call a builtin free function. Arity errors are reported at line 0
/// (historical behavior both engines preserve); all other errors carry the
/// current statement line via [`Host::rt_err`].
pub(crate) fn call_builtin<H: Host>(
    h: &mut H,
    id: BuiltinId,
    args: &[Value],
) -> Result<Value, LangError> {
    let name = id.name();
    let arity = |n: usize| -> Result<(), LangError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(LangError::runtime(
                0,
                format!("builtin `{name}` expects {n} argument(s), got {}", args.len()),
            ))
        }
    };
    match id {
        BuiltinId::Print => {
            let line = args
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            h.push_output(line);
            Ok(Value::Null)
        }
        BuiltinId::Work => {
            arity(1)?;
            let Value::Int(n) = args[0] else {
                return Err(h.rt_err("work(n) takes an int".into()));
            };
            if n < 0 {
                return Err(h.rt_err("work(n) takes a non-negative int".into()));
            }
            h.tick(n as u64)?;
            Ok(Value::Null)
        }
        BuiltinId::Rand => {
            arity(1)?;
            let Value::Int(n) = args[0] else {
                return Err(h.rt_err("rand(n) takes an int".into()));
            };
            Ok(Value::Int(h.next_rand(n)))
        }
        BuiltinId::Range => {
            arity(2)?;
            let (Value::Int(a), Value::Int(b)) = (&args[0], &args[1]) else {
                return Err(h.rt_err("range(a, b) takes ints".into()));
            };
            // Charge before allocating: a range past the step limit must
            // fail as a runtime error, not abort the process.
            h.tick(if b > a { b.abs_diff(*a) } else { 0 })?;
            let items: Vec<Value> = (*a..*b).map(Value::Int).collect();
            Ok(new_list(h, items))
        }
        BuiltinId::List => {
            arity(0)?;
            Ok(new_list(h, Vec::new()))
        }
        BuiltinId::Len => {
            arity(1)?;
            match &args[0] {
                Value::List(l) => {
                    h.record(DynLoc::ListStruct(l.id), AccessKind::Read);
                    Ok(Value::Int(l.items.borrow().len() as i64))
                }
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(h.rt_err(format!("len() of {}", other.type_name()))),
            }
        }
        BuiltinId::Str => {
            arity(1)?;
            Ok(Value::str(args[0].to_string()))
        }
        BuiltinId::Int => {
            arity(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(*v)),
                Value::Float(v) => Ok(Value::Int(*v as i64)),
                Value::Str(s) => s
                    .trim()
                    .parse::<i64>()
                    .map(Value::Int)
                    .map_err(|_| h.rt_err(format!("cannot parse {s:?} as int"))),
                Value::Bool(b) => Ok(Value::Int(*b as i64)),
                other => Err(h.rt_err(format!("int() of {}", other.type_name()))),
            }
        }
        BuiltinId::Float => {
            arity(1)?;
            args[0]
                .as_f64()
                .map(Value::Float)
                .ok_or_else(|| h.rt_err(format!("float() of {}", args[0].type_name())))
        }
        BuiltinId::Abs => {
            arity(1)?;
            match &args[0] {
                Value::Int(v) => Ok(Value::Int(v.abs())),
                Value::Float(v) => Ok(Value::Float(v.abs())),
                other => Err(h.rt_err(format!("abs() of {}", other.type_name()))),
            }
        }
        BuiltinId::Sqrt => {
            arity(1)?;
            let v = args[0]
                .as_f64()
                .ok_or_else(|| h.rt_err("sqrt() of non-number".into()))?;
            Ok(Value::Float(v.sqrt()))
        }
        BuiltinId::Floor => {
            arity(1)?;
            let v = args[0]
                .as_f64()
                .ok_or_else(|| h.rt_err("floor() of non-number".into()))?;
            Ok(Value::Int(v.floor() as i64))
        }
        BuiltinId::Min | BuiltinId::Max => {
            arity(2)?;
            let (a, b) = (&args[0], &args[1]);
            match (a, b) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(if id == BuiltinId::Min {
                    *x.min(y)
                } else {
                    *x.max(y)
                })),
                _ => {
                    let (x, y) = (
                        a.as_f64()
                            .ok_or_else(|| h.rt_err("min/max of non-number".into()))?,
                        b.as_f64()
                            .ok_or_else(|| h.rt_err("min/max of non-number".into()))?,
                    );
                    Ok(Value::Float(if id == BuiltinId::Min { x.min(y) } else { x.max(y) }))
                }
            }
        }
        BuiltinId::Pow => {
            arity(2)?;
            let a = args[0]
                .as_f64()
                .ok_or_else(|| h.rt_err("pow of non-number".into()))?;
            let b = args[1]
                .as_f64()
                .ok_or_else(|| h.rt_err("pow of non-number".into()))?;
            Ok(Value::Float(a.powf(b)))
        }
        BuiltinId::Assert => {
            if args.is_empty() || args.len() > 2 {
                return Err(h.rt_err("assert(cond, msg?)".into()));
            }
            match args[0].as_bool() {
                Some(true) => Ok(Value::Null),
                Some(false) => {
                    let msg = args
                        .get(1)
                        .map(|m| m.to_string())
                        .unwrap_or_else(|| "assertion failed".into());
                    Err(h.rt_err(format!("assertion failed: {msg}")))
                }
                None => Err(h.rt_err("assert condition must be bool".into())),
            }
        }
    }
}

/// Compact tag of a builtin method name. The VM resolves call names to
/// tags at compile time so dispatch is an integer match instead of a
/// per-call string comparison; names with no tag (and tags on the wrong
/// receiver type) fail with the same "no method" error as the string path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum MethodTag {
    Add,
    Len,
    Get,
    Set,
    Contains,
    Clear,
    Clone,
    Upper,
    Lower,
    Trim,
    StartsWith,
    Split,
    Substr,
}

impl MethodTag {
    /// The single source of truth for which names are builtin methods.
    pub(crate) fn from_name(name: &str) -> Option<MethodTag> {
        Some(match name {
            "add" => MethodTag::Add,
            "len" => MethodTag::Len,
            "get" => MethodTag::Get,
            "set" => MethodTag::Set,
            "contains" => MethodTag::Contains,
            "clear" => MethodTag::Clear,
            "clone" => MethodTag::Clone,
            "upper" => MethodTag::Upper,
            "lower" => MethodTag::Lower,
            "trim" => MethodTag::Trim,
            "startsWith" => MethodTag::StartsWith,
            "split" => MethodTag::Split,
            "substr" => MethodTag::Substr,
            _ => return None,
        })
    }
}

/// Call a builtin method on a receiver value (list and string methods).
/// String-keyed entry point used by the tree-walker.
pub(crate) fn call_builtin_method<H: Host>(
    h: &mut H,
    recv: &Value,
    method: &str,
    args: &[Value],
) -> Result<Value, LangError> {
    match MethodTag::from_name(method) {
        Some(tag) => call_builtin_method_tagged(h, recv, tag, method, args),
        None => Err(h.rt_err(format!("no method `{}` on {}", method, recv.type_name()))),
    }
}

/// Tag-keyed builtin method dispatch; `method` is only used to format the
/// wrong-receiver error, which must match the string path byte for byte.
pub(crate) fn call_builtin_method_tagged<H: Host>(
    h: &mut H,
    recv: &Value,
    tag: MethodTag,
    method: &str,
    args: &[Value],
) -> Result<Value, LangError> {
    match (recv, tag) {
        (Value::List(l), MethodTag::Add) => {
            if args.len() != 1 {
                return Err(h.rt_err("list.add(v) takes one argument".into()));
            }
            h.record(DynLoc::ListStruct(l.id), AccessKind::Write);
            l.items.borrow_mut().push(args[0].clone());
            Ok(Value::Null)
        }
        (Value::List(l), MethodTag::Len) => {
            h.record(DynLoc::ListStruct(l.id), AccessKind::Read);
            Ok(Value::Int(l.items.borrow().len() as i64))
        }
        (Value::List(l), MethodTag::Get) => {
            let Some(Value::Int(i)) = args.first() else {
                return Err(h.rt_err("list.get(i) takes an int".into()));
            };
            let len = l.items.borrow().len() as i64;
            if *i < 0 || *i >= len {
                return Err(h.rt_err(format!("get({i}) out of bounds (len {len})")));
            }
            h.record(DynLoc::Elem(l.id, *i), AccessKind::Read);
            Ok(l.items.borrow()[*i as usize].clone())
        }
        (Value::List(l), MethodTag::Set) => {
            let (Some(Value::Int(i)), Some(v)) = (args.first(), args.get(1)) else {
                return Err(h.rt_err("list.set(i, v) takes an int and a value".into()));
            };
            let len = l.items.borrow().len() as i64;
            if *i < 0 || *i >= len {
                return Err(h.rt_err(format!("set({i}) out of bounds (len {len})")));
            }
            h.record(DynLoc::Elem(l.id, *i), AccessKind::Write);
            l.items.borrow_mut()[*i as usize] = v.clone();
            Ok(Value::Null)
        }
        (Value::List(l), MethodTag::Contains) => {
            let Some(needle) = args.first() else {
                return Err(h.rt_err("list.contains(v) takes one argument".into()));
            };
            h.record(DynLoc::ListStruct(l.id), AccessKind::Read);
            let found = l.items.borrow().iter().any(|v| v.loose_eq(needle));
            h.tick(l.items.borrow().len() as u64)?;
            Ok(Value::Bool(found))
        }
        (Value::List(l), MethodTag::Clear) => {
            h.record(DynLoc::ListStruct(l.id), AccessKind::Write);
            l.items.borrow_mut().clear();
            Ok(Value::Null)
        }
        (Value::List(l), MethodTag::Clone) => {
            h.record(DynLoc::ListStruct(l.id), AccessKind::Read);
            let items = l.items.borrow().clone();
            h.tick(items.len() as u64)?;
            Ok(new_list(h, items))
        }
        (Value::Str(s), MethodTag::Len) => Ok(Value::Int(s.chars().count() as i64)),
        (Value::Str(s), MethodTag::Upper) => Ok(Value::str(s.to_uppercase())),
        (Value::Str(s), MethodTag::Lower) => Ok(Value::str(s.to_lowercase())),
        (Value::Str(s), MethodTag::Trim) => Ok(Value::str(s.trim())),
        (Value::Str(s), MethodTag::Contains) => {
            let Some(Value::Str(needle)) = args.first() else {
                return Err(h.rt_err("string.contains(s) takes a string".into()));
            };
            Ok(Value::Bool(s.contains(needle.as_ref())))
        }
        (Value::Str(s), MethodTag::StartsWith) => {
            let Some(Value::Str(p)) = args.first() else {
                return Err(h.rt_err("string.startsWith(s) takes a string".into()));
            };
            Ok(Value::Bool(s.starts_with(p.as_ref())))
        }
        (Value::Str(s), MethodTag::Split) => {
            let Some(Value::Str(sep)) = args.first() else {
                return Err(h.rt_err("string.split(sep) takes a string".into()));
            };
            let items: Vec<Value> = if sep.is_empty() {
                s.chars().map(|c| Value::str(c.to_string())).collect()
            } else {
                s.split(sep.as_ref())
                    .filter(|p| !p.is_empty())
                    .map(Value::str)
                    .collect()
            };
            h.tick(items.len() as u64)?;
            Ok(new_list(h, items))
        }
        (Value::Str(s), MethodTag::Substr) => {
            let (Some(Value::Int(a)), Some(Value::Int(b))) = (args.first(), args.get(1)) else {
                return Err(h.rt_err("string.substr(a, b) takes two ints".into()));
            };
            let chars: Vec<char> = s.chars().collect();
            let a = (*a).clamp(0, chars.len() as i64) as usize;
            let b = (*b).clamp(a as i64, chars.len() as i64) as usize;
            Ok(Value::str(chars[a..b].iter().collect::<String>()))
        }
        (recv, _) => Err(h.rt_err(format!("no method `{}` on {}", method, recv.type_name()))),
    }
}

/// Apply a non-logical binary operator to two values.
pub(crate) fn binary_op(op: crate::ast::BinOp, l: &Value, r: &Value) -> Result<Value, String> {
    use crate::ast::BinOp::*;
    use Value::*;
    let type_err = || {
        Err(format!(
            "cannot apply operator to {} and {}",
            l.type_name(),
            r.type_name()
        ))
    };
    match op {
        Add => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_add(*b))),
            (Str(a), b) => Ok(Value::str(format!("{a}{b}"))),
            (a, Str(b)) => Ok(Value::str(format!("{a}{b}"))),
            _ => num_op(l, r, |a, b| a + b).ok_or(()).or_else(|_| type_err()),
        },
        Sub => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_sub(*b))),
            _ => num_op(l, r, |a, b| a - b).ok_or(()).or_else(|_| type_err()),
        },
        Mul => match (l, r) {
            (Int(a), Int(b)) => Ok(Int(a.wrapping_mul(*b))),
            _ => num_op(l, r, |a, b| a * b).ok_or(()).or_else(|_| type_err()),
        },
        Div => match (l, r) {
            (Int(_), Int(0)) => Err("division by zero".into()),
            (Int(a), Int(b)) => Ok(Int(a / b)),
            _ => num_op(l, r, |a, b| a / b).ok_or(()).or_else(|_| type_err()),
        },
        Rem => match (l, r) {
            (Int(_), Int(0)) => Err("remainder by zero".into()),
            (Int(a), Int(b)) => Ok(Int(a % b)),
            _ => type_err(),
        },
        Eq => Ok(Bool(l.loose_eq(r))),
        Ne => Ok(Bool(!l.loose_eq(r))),
        Lt | Le | Gt | Ge => {
            let cmp = match (l, r) {
                (Int(a), Int(b)) => a.partial_cmp(b),
                (Str(a), Str(b)) => a.partial_cmp(b),
                _ => {
                    let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                        return type_err();
                    };
                    a.partial_cmp(&b)
                }
            };
            let Some(ord) = cmp else {
                return Err("incomparable values".into());
            };
            Ok(Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        And | Or => unreachable!("handled by short-circuit evaluation"),
    }
}

fn num_op(l: &Value, r: &Value, f: impl Fn(f64, f64) -> f64) -> Option<Value> {
    Some(Value::Float(f(l.as_f64()?, r.as_f64()?)))
}
