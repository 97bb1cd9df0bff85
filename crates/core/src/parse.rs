//! Recursive-descent parser for the CHERI C subset.
//!
//! Supports the C fragment the paper's design questions and test suite
//! exercise: declarations (including full declarator syntax, so function
//! pointers like `int (*f)(int)` parse), structs/unions/enums/typedefs,
//! the full expression grammar with C precedence, and the usual statements.
//!
//! Built-in typedefs (`stdint.h`/`stddef.h`/`cheriintrin.h` material) and
//! limit macros (`INT_MAX` etc.) are predefined, since `#include`s are
//! ignored by the lexer.

use std::collections::HashMap;
use std::fmt;

use crate::ast::*;
use crate::lex::{lex, LexError, Pos, Spanned, Tok};
use crate::types::{IntTy, StructId, TargetLayout, Ty, TypeTable};

/// Parse error.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// What went wrong.
    pub msg: String,
    /// Where.
    pub pos: Pos,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            pos: e.pos,
        }
    }
}

type PResult<T> = Result<T, ParseError>;

/// Result of parsing: the AST plus the type environment it was parsed
/// against (struct layouts, typedefs).
#[derive(Debug)]
pub struct Parsed {
    /// The translation unit.
    pub program: Program,
    /// Struct/union layouts and target sizes.
    pub types: TypeTable,
}

/// Parse a translation unit.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors or on uses of C features
/// outside the supported fragment.
pub fn parse(src: &str, layout: TargetLayout) -> PResult<Parsed> {
    let toks = lex(src)?;
    let mut p = Parser::new(toks, layout);
    let program = p.translation_unit()?;
    Ok(Parsed {
        program,
        types: p.types,
    })
}

const TYPE_KEYWORDS: &[&str] = &[
    "void", "char", "short", "int", "long", "signed", "unsigned", "_Bool", "bool", "struct",
    "union", "enum", "const", "volatile", "static", "typedef", "extern", "register", "float",
    "double",
];

struct Parser {
    toks: Vec<Spanned>,
    i: usize,
    types: TypeTable,
    typedefs: HashMap<String, Ty>,
    struct_tags: HashMap<String, StructId>,
    enum_consts: HashMap<String, i64>,
    /// The structs and unions whose bodies are being parsed, innermost
    /// last: the only incomplete aggregates (tags must be defined before
    /// use, so there are no forward declarations).
    open_structs: Vec<StructId>,
}

/// A parsed declarator: the name (empty for abstract declarators) and a
/// transformation applied to the base type.
struct Declarator {
    name: String,
    /// Applies pointer/array/function derivations, innermost-first.
    wrap: Box<dyn FnOnce(Ty) -> Ty>,
    /// Parameter names of the parameter list applied directly to the named
    /// identifier (i.e. *this* function's own parameters, not those of a
    /// returned function pointer).
    own_param_names: Option<Vec<String>>,
}

/// The message for `sizeof` applied to a type without a size, named by
/// `what` (C11 6.5.3.4p1).
pub(crate) fn sizeof_error(what: &str) -> String {
    format!("invalid application of `sizeof` to {what} (C11 6.5.3.4p1)")
}

/// The built-in typedef names (`<stdint.h>`, `<stddef.h>` and
/// `<cheriintrin.h>` material), consulted after the program's own
/// typedefs.
fn builtin_typedef(name: &str) -> Option<IntTy> {
    Some(match name {
        "intptr_t" => IntTy::IntPtr,
        "uintptr_t" => IntTy::UIntPtr,
        "ptraddr_t" | "vaddr_t" => IntTy::PtrAddr,
        "size_t" | "uint64_t" => IntTy::ULong,
        "ptrdiff_t" | "int64_t" => IntTy::Long,
        "intmax_t" => IntTy::LongLong,
        "uintmax_t" => IntTy::ULongLong,
        "int8_t" => IntTy::SChar,
        "uint8_t" => IntTy::UChar,
        "int16_t" => IntTy::Short,
        "uint16_t" => IntTy::UShort,
        "int32_t" => IntTy::Int,
        "uint32_t" => IntTy::UInt,
        _ => return None,
    })
}

impl Parser {
    fn new(toks: Vec<Spanned>, layout: TargetLayout) -> Self {
        Parser {
            toks,
            i: 0,
            types: TypeTable::new(layout),
            typedefs: HashMap::new(),
            struct_tags: HashMap::new(),
            enum_consts: HashMap::new(),
            open_structs: Vec::new(),
        }
    }

    // ── Token plumbing ───────────────────────────────────────────────────

    fn peek(&self) -> &Tok {
        &self.toks[self.i].tok
    }

    fn pos(&self) -> Pos {
        self.toks[self.i].pos
    }

    /// Step past the current token (the final `Eof` is never passed).
    fn bump(&mut self) {
        if self.i < self.toks.len() - 1 {
            self.i += 1;
        }
    }

    /// Step past the current token, moving it out of the token stream:
    /// for tokens whose contents go into the AST. The parser backtracks
    /// only over punctuators, never over a token taken here.
    fn take(&mut self) -> Tok {
        let t = std::mem::replace(&mut self.toks[self.i].tok, Tok::Eof);
        self.bump();
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            msg: msg.into(),
            pos: self.pos(),
        })
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if matches!(self.peek(), Tok::Punct(q) if *q == p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> PResult<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            self.err(format!("expected `{p}`, found `{}`", self.peek()))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Tok::Ident(s) if s == kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Take the current token if it is an identifier.
    fn take_ident(&mut self) -> Option<String> {
        if !matches!(self.peek(), Tok::Ident(_)) {
            return None;
        }
        match self.take() {
            Tok::Ident(s) => Some(s),
            _ => None,
        }
    }

    fn expect_ident(&mut self) -> PResult<String> {
        if let Some(s) = self.take_ident() {
            return Ok(s);
        }
        // The error is reported at the token after the offending one.
        let msg = format!("expected identifier, found `{}`", self.peek());
        self.bump();
        self.err(msg)
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s == kw)
    }

    // ── Types ────────────────────────────────────────────────────────────

    /// Does the current token start a type (for cast/sizeof/decl detection)?
    fn at_type_start(&self) -> bool {
        self.type_start_at(self.i)
    }

    /// Does token `i` (clamped to the final `Eof`) start a type?
    fn type_start_at(&self, i: usize) -> bool {
        match &self.toks[i.min(self.toks.len() - 1)].tok {
            Tok::Ident(s) => TYPE_KEYWORDS.contains(&s.as_str()) || self.is_typedef_name(s),
            _ => false,
        }
    }

    /// The type a typedef name stands for: the program's own typedefs
    /// first, then the built-in ones.
    fn typedef_ty(&self, name: &str) -> Option<Ty> {
        match self.typedefs.get(name) {
            Some(t) => Some(t.clone()),
            None => builtin_typedef(name).map(Ty::Int),
        }
    }

    fn is_typedef_name(&self, name: &str) -> bool {
        self.typedefs.contains_key(name) || builtin_typedef(name).is_some()
    }

    /// Parse declaration specifiers: type keywords, struct/union/enum,
    /// typedef names, `const`, `static`. Returns
    /// `(type, is_const, is_typedef, is_static)`.
    fn decl_specifiers(&mut self) -> PResult<(Ty, bool, bool, bool)> {
        let mut is_const = false;
        let mut is_typedef = false;
        let mut is_static = false;
        let mut signedness: Option<bool> = None; // Some(true) = signed
        let mut base: Option<&'static str> = None;
        let mut longs = 0u32;
        let mut ty: Option<Ty> = None;
        while let Tok::Ident(s) = self.peek() {
            match s.as_str() {
                "typedef" => is_typedef = true,
                "const" => is_const = true,
                "static" => is_static = true,
                "volatile" | "extern" | "register" | "inline" | "_Atomic" | "restrict" => {}
                "signed" => signedness = Some(true),
                "unsigned" => signedness = Some(false),
                "long" => longs += 1,
                "void" | "char" | "short" | "int" | "_Bool" | "bool" | "float" | "double" => {
                    if base.is_some() && !(base == Some("short") && s == "int") {
                        break;
                    }
                    base = Some(match s.as_str() {
                        "void" => "void",
                        "char" => "char",
                        "short" => "short",
                        "_Bool" | "bool" => "bool",
                        "float" => "float",
                        "double" => "double",
                        _ => "int",
                    });
                }
                "struct" | "union" => {
                    let is_union = s == "union";
                    self.bump();
                    ty = Some(self.struct_or_union(is_union)?);
                    continue;
                }
                "enum" => {
                    self.bump();
                    ty = Some(self.enum_def()?);
                    continue;
                }
                _ => {
                    if ty.is_none() && base.is_none() && signedness.is_none() && longs == 0 {
                        if let Some(t) = self.typedef_ty(s) {
                            ty = Some(t);
                            self.bump();
                            continue;
                        }
                    }
                    break;
                }
            }
            self.bump();
        }
        let ty = if let Some(t) = ty {
            t
        } else {
            let signed = signedness.unwrap_or(true);
            match (base, longs) {
                (Some("void"), _) => Ty::Void,
                (Some("bool"), _) => Ty::Int(IntTy::Bool),
                (Some("float"), _) => Ty::Float(crate::types::FloatTy::F32),
                // `long double` is treated as double.
                (Some("double"), _) => Ty::Float(crate::types::FloatTy::F64),
                (Some("char"), _) => Ty::Int(match signedness {
                    None => IntTy::Char,
                    Some(true) => IntTy::SChar,
                    Some(false) => IntTy::UChar,
                }),
                (Some("short"), _) => {
                    Ty::Int(if signed { IntTy::Short } else { IntTy::UShort })
                }
                (_, 1) => Ty::Int(if signed { IntTy::Long } else { IntTy::ULong }),
                (_, n) if n >= 2 => {
                    Ty::Int(if signed { IntTy::LongLong } else { IntTy::ULongLong })
                }
                (Some("int") | None, 0) if base.is_some() || signedness.is_some() => {
                    Ty::Int(if signed { IntTy::Int } else { IntTy::UInt })
                }
                _ => return self.err("expected type specifier"),
            }
        };
        Ok((ty, is_const, is_typedef, is_static))
    }

    fn struct_or_union(&mut self, is_union: bool) -> PResult<Ty> {
        let tag = self.take_ident();
        if self.eat_punct("{") {
            // Reserve the tag first so members may refer to the type itself
            // through pointers (`struct node *next`).
            let name = tag.clone().unwrap_or_else(|| "<anon>".to_string());
            let id = self.types.reserve_struct(&name, is_union);
            if let Some(tag) = &tag {
                self.struct_tags.insert(tag.clone(), id);
            }
            self.open_structs.push(id);
            let mut members = Vec::new();
            while !self.eat_punct("}") {
                let (base, _c, _, _) = self.decl_specifiers()?;
                loop {
                    let pos = self.pos();
                    let d = self.declarator()?;
                    let ty = (d.wrap)(base.clone());
                    if let Some(what) = self.incomplete(&ty) {
                        let msg = if matches!(ty, Ty::Array(_, None)) {
                            format!(
                                "member `{}` has {what}: flexible array members are not supported (C11 6.7.2.1p18)",
                                d.name
                            )
                        } else {
                            format!("member `{}` has {what} (C11 6.7.2.1p3)", d.name)
                        };
                        return Err(ParseError { msg, pos });
                    }
                    members.push((d.name, ty));
                    if !self.eat_punct(",") {
                        break;
                    }
                }
                self.expect_punct(";")?;
            }
            self.open_structs.pop();
            self.types.complete_struct(id, is_union, members);
            Ok(if is_union { Ty::Union(id) } else { Ty::Struct(id) })
        } else if let Some(tag) = tag {
            match self.struct_tags.get(&tag) {
                Some(id) => Ok(if is_union { Ty::Union(*id) } else { Ty::Struct(*id) }),
                None => self.err(format!("unknown struct/union tag `{tag}`")),
            }
        } else {
            self.err("expected struct body or tag")
        }
    }

    /// Names the type without a size that `ty` is or has as its element
    /// type: one [`Ty::sizeless`] names, or a struct or union whose body is
    /// still open. Neither a struct member (C11 6.7.2.1p3) nor the operand
    /// of `sizeof` (6.5.3.4p1) may have one.
    fn incomplete(&self, ty: &Ty) -> Option<String> {
        match ty {
            Ty::Array(elem, Some(_)) => self.incomplete(elem),
            Ty::Struct(id) | Ty::Union(id) if self.open_structs.contains(id) => {
                let kind = if matches!(ty, Ty::Union(_)) { "union" } else { "struct" };
                Some(format!("incomplete type `{kind} {}`", self.types.structs[id.0].name))
            }
            _ => ty.sizeless().map(Into::into),
        }
    }

    fn enum_def(&mut self) -> PResult<Ty> {
        if let Tok::Ident(_) = self.peek() {
            self.bump(); // tag, unused beyond scoping
        }
        if self.eat_punct("{") {
            let mut next = 0i64;
            while !self.eat_punct("}") {
                let name = self.expect_ident()?;
                if self.eat_punct("=") {
                    let e = self.conditional_expr()?;
                    next = self.const_eval(&e)? as i64;
                }
                self.enum_consts.insert(name, next);
                next += 1;
                if !self.eat_punct(",") {
                    self.expect_punct("}")?;
                    break;
                }
            }
        }
        Ok(Ty::int())
    }

    /// Parse a (possibly abstract) declarator against a to-be-supplied base
    /// type.
    fn declarator(&mut self) -> PResult<Declarator> {
        // Pointer prefix.
        let mut ptr_consts = Vec::new();
        while self.eat_punct("*") {
            let mut c = false;
            while self.is_kw("const") || self.is_kw("volatile") || self.is_kw("restrict") {
                if self.eat_kw("const") {
                    c = true;
                } else {
                    self.bump();
                }
            }
            ptr_consts.push(c);
        }
        // Direct declarator.
        let mut direct_is_ident = false;
        let inner: Declarator = if self.eat_punct("(") {
            // Parenthesised declarator (e.g. `(*f)` in a function pointer) —
            // but `()` or `(type...` means an abstract function suffix on an
            // omitted name instead.
            if matches!(self.peek(), Tok::Punct(")")) || self.at_type_start() {
                // Treat as suffix of an anonymous declarator: rewind by
                // handling it below; push back the `(`.
                self.i -= 1;
                Declarator {
                    name: String::new(),
                    wrap: Box::new(|t| t),
                    own_param_names: None,
                }
            } else {
                let d = self.declarator()?;
                self.expect_punct(")")?;
                d
            }
        } else if let Tok::Ident(s) = self.peek() {
            if TYPE_KEYWORDS.contains(&s.as_str()) {
                return self.err(format!("unexpected keyword `{s}` in declarator"));
            }
            let name = self.take_ident().expect("peeked an identifier");
            direct_is_ident = true;
            Declarator {
                name,
                wrap: Box::new(|t| t),
                own_param_names: None,
            }
        } else {
            Declarator {
                name: String::new(),
                wrap: Box::new(|t| t),
                own_param_names: None,
            }
        };
        // Suffixes: arrays and function parameter lists. These bind tighter
        // than the pointer prefix and apply outermost-last.
        let mut suffixes: Vec<Box<dyn FnOnce(Ty) -> Ty>> = Vec::new();
        let mut own_param_names = inner.own_param_names;
        let mut first_suffix = true;
        loop {
            if self.eat_punct("[") {
                let len = if matches!(self.peek(), Tok::Punct("]")) {
                    None
                } else {
                    let e = self.conditional_expr()?;
                    Some(self.const_eval(&e)?)
                };
                self.expect_punct("]")?;
                suffixes.push(Box::new(move |t| Ty::Array(Box::new(t), len)));
                first_suffix = false;
            } else if self.eat_punct("(") {
                let (params, variadic, names) = self.param_list()?;
                // The parameter list applied directly to the identifier is
                // this function's own — record its names.
                if direct_is_ident && first_suffix {
                    own_param_names = Some(names);
                }
                suffixes.push(Box::new(move |t| Ty::Func {
                    ret: Box::new(t),
                    params,
                    variadic,
                }));
                first_suffix = false;
            } else {
                break;
            }
        }
        let name = inner.name;
        let inner_wrap = inner.wrap;
        Ok(Declarator {
            name,
            own_param_names,
            wrap: Box::new(move |mut t| {
                for (i, c) in ptr_consts.iter().enumerate() {
                    // The first `*` may carry a const pointee from the
                    // specifier level; that is handled by the caller. Here
                    // each further `*const` marks a const *pointer*, which we
                    // do not model — only const pointees matter for §3.9.
                    let _ = (i, c);
                    t = Ty::ptr(t);
                }
                // Suffixes apply to the *declared* entity: innermost
                // suffix first, then the inner declarator wraps the result.
                for s in suffixes.into_iter().rev() {
                    t = s(t);
                }
                inner_wrap(t)
            }),
        })
    }

    fn param_list(&mut self) -> PResult<(Vec<Ty>, bool, Vec<String>)> {
        let mut params = Vec::new();
        let mut names = Vec::new();
        let mut variadic = false;
        if self.eat_punct(")") {
            return Ok((params, variadic, names));
        }
        loop {
            if self.eat_punct("...") {
                variadic = true;
                break;
            }
            let (base, is_const, _, _) = self.decl_specifiers()?;
            if base == Ty::Void && matches!(self.peek(), Tok::Punct(")")) {
                break; // (void)
            }
            let d = self.declarator()?;
            names.push(d.name.clone());
            let mut ty = (d.wrap)(base);
            if is_const {
                // const on a parameter's pointee is folded by named_param in
                // the caller; for the type-only list record const pointees.
                if let Ty::Ptr { pointee, .. } = ty {
                    ty = Ty::Ptr {
                        pointee,
                        const_pointee: true,
                    };
                }
            }
            // Array parameters decay to pointers.
            if let Ty::Array(elem, _) = ty {
                ty = Ty::ptr(*elem);
            }
            params.push(ty);
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(")")?;
        Ok((params, variadic, names))
    }

    /// Parse a type-name (for casts and sizeof).
    fn type_name(&mut self) -> PResult<Ty> {
        let (base, is_const, _, _) = self.decl_specifiers()?;
        let d = self.declarator()?;
        if !d.name.is_empty() {
            return self.err("unexpected name in type-name");
        }
        let ty = (d.wrap)(base);
        // `const T *` : the const qualifies the pointee.
        if is_const {
            if let Ty::Ptr { pointee, .. } = ty {
                return Ok(Ty::Ptr {
                    pointee,
                    const_pointee: true,
                });
            }
        }
        Ok(ty)
    }

    // ── Constant evaluation (array sizes, enum values) ───────────────────

    fn const_eval(&mut self, e: &Expr) -> PResult<u64> {
        let v = self.const_eval_i128(e)?;
        u64::try_from(v).map_err(|_| ParseError {
            msg: "negative constant where size expected".into(),
            pos: e.pos,
        })
    }

    fn const_eval_i128(&mut self, e: &Expr) -> PResult<i128> {
        let v = match &e.kind {
            ExprKind::IntLit { value, .. } => *value as i128,
            ExprKind::CharLit(c) => i128::from(*c),
            ExprKind::Ident(name) => match self.enum_consts.get(name) {
                Some(v) => i128::from(*v),
                None => {
                    return Err(ParseError {
                        msg: format!("`{name}` is not a constant"),
                        pos: e.pos,
                    })
                }
            },
            ExprKind::SizeofTy(t) => {
                if let Some(what) = self.incomplete(t) {
                    return Err(ParseError {
                        msg: sizeof_error(&what),
                        pos: e.pos,
                    });
                }
                self.types.size_of(t) as i128
            }
            ExprKind::AlignofTy(t) => self.types.align_of(t) as i128,
            ExprKind::Unary(UnOp::Neg, a) => -self.const_eval_i128(a)?,
            ExprKind::Unary(UnOp::BitNot, a) => !self.const_eval_i128(a)?,
            ExprKind::Binary(op, a, b) => {
                let a = self.const_eval_i128(a)?;
                let b = self.const_eval_i128(b)?;
                match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Rem => a % b,
                    BinOp::Shl => a << b,
                    BinOp::Shr => a >> b,
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    _ => {
                        return Err(ParseError {
                            msg: "unsupported constant operator".into(),
                            pos: e.pos,
                        })
                    }
                }
            }
            _ => {
                return Err(ParseError {
                    msg: "not a constant expression".into(),
                    pos: e.pos,
                })
            }
        };
        Ok(v)
    }

    // ── Expressions (precedence climbing) ────────────────────────────────

    fn expr(&mut self) -> PResult<Expr> {
        let mut e = self.assignment_expr()?;
        while self.eat_punct(",") {
            let rhs = self.assignment_expr()?;
            let pos = e.pos;
            e = Expr {
                kind: ExprKind::Comma(Box::new(e), Box::new(rhs)),
                pos,
            };
        }
        Ok(e)
    }

    fn assignment_expr(&mut self) -> PResult<Expr> {
        let lhs = self.conditional_expr()?;
        let op = match self.peek() {
            Tok::Punct("=") => Some(None),
            Tok::Punct("+=") => Some(Some(BinOp::Add)),
            Tok::Punct("-=") => Some(Some(BinOp::Sub)),
            Tok::Punct("*=") => Some(Some(BinOp::Mul)),
            Tok::Punct("/=") => Some(Some(BinOp::Div)),
            Tok::Punct("%=") => Some(Some(BinOp::Rem)),
            Tok::Punct("&=") => Some(Some(BinOp::And)),
            Tok::Punct("|=") => Some(Some(BinOp::Or)),
            Tok::Punct("^=") => Some(Some(BinOp::Xor)),
            Tok::Punct("<<=") => Some(Some(BinOp::Shl)),
            Tok::Punct(">>=") => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.assignment_expr()?;
            let pos = lhs.pos;
            Ok(Expr {
                kind: ExprKind::Assign {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                pos,
            })
        } else {
            Ok(lhs)
        }
    }

    fn conditional_expr(&mut self) -> PResult<Expr> {
        let c = self.binary_expr(0)?;
        if self.eat_punct("?") {
            let t = self.expr()?;
            self.expect_punct(":")?;
            let f = self.conditional_expr()?;
            let pos = c.pos;
            Ok(Expr {
                kind: ExprKind::Cond(Box::new(c), Box::new(t), Box::new(f)),
                pos,
            })
        } else {
            Ok(c)
        }
    }

    fn bin_op_prec(&self) -> Option<(BinOp, u8)> {
        let op = match self.peek() {
            Tok::Punct("||") => (BinOp::LogOr, 1),
            Tok::Punct("&&") => (BinOp::LogAnd, 2),
            Tok::Punct("|") => (BinOp::Or, 3),
            Tok::Punct("^") => (BinOp::Xor, 4),
            Tok::Punct("&") => (BinOp::And, 5),
            Tok::Punct("==") => (BinOp::Eq, 6),
            Tok::Punct("!=") => (BinOp::Ne, 6),
            Tok::Punct("<") => (BinOp::Lt, 7),
            Tok::Punct(">") => (BinOp::Gt, 7),
            Tok::Punct("<=") => (BinOp::Le, 7),
            Tok::Punct(">=") => (BinOp::Ge, 7),
            Tok::Punct("<<") => (BinOp::Shl, 8),
            Tok::Punct(">>") => (BinOp::Shr, 8),
            Tok::Punct("+") => (BinOp::Add, 9),
            Tok::Punct("-") => (BinOp::Sub, 9),
            Tok::Punct("*") => (BinOp::Mul, 10),
            Tok::Punct("/") => (BinOp::Div, 10),
            Tok::Punct("%") => (BinOp::Rem, 10),
            _ => return None,
        };
        Some(op)
    }

    fn binary_expr(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = self.bin_op_prec() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            let pos = lhs.pos;
            lhs = Expr {
                kind: ExprKind::Binary(op, Box::new(lhs), Box::new(rhs)),
                pos,
            };
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        let kind = match self.peek() {
            Tok::Punct("-") => {
                self.bump();
                ExprKind::Unary(UnOp::Neg, Box::new(self.unary_expr()?))
            }
            Tok::Punct("+") => {
                self.bump();
                ExprKind::Unary(UnOp::Plus, Box::new(self.unary_expr()?))
            }
            Tok::Punct("~") => {
                self.bump();
                ExprKind::Unary(UnOp::BitNot, Box::new(self.unary_expr()?))
            }
            Tok::Punct("!") => {
                self.bump();
                ExprKind::Unary(UnOp::LogNot, Box::new(self.unary_expr()?))
            }
            Tok::Punct("*") => {
                self.bump();
                ExprKind::Deref(Box::new(self.unary_expr()?))
            }
            Tok::Punct("&") => {
                self.bump();
                ExprKind::AddrOf(Box::new(self.unary_expr()?))
            }
            Tok::Punct("++") => {
                self.bump();
                ExprKind::IncDec {
                    inc: true,
                    prefix: true,
                    arg: Box::new(self.unary_expr()?),
                }
            }
            Tok::Punct("--") => {
                self.bump();
                ExprKind::IncDec {
                    inc: false,
                    prefix: true,
                    arg: Box::new(self.unary_expr()?),
                }
            }
            Tok::Ident(s) if s == "sizeof" => {
                self.bump();
                // Lookahead: `sizeof (type)` vs `sizeof (expr)`.
                if matches!(self.peek(), Tok::Punct("(")) && self.type_start_at(self.i + 1) {
                    self.bump();
                    let t = self.type_name()?;
                    self.expect_punct(")")?;
                    ExprKind::SizeofTy(t)
                } else {
                    ExprKind::SizeofExpr(Box::new(self.unary_expr()?))
                }
            }
            Tok::Ident(s) if s == "_Alignof" || s == "alignof" => {
                self.bump();
                self.expect_punct("(")?;
                let t = self.type_name()?;
                self.expect_punct(")")?;
                ExprKind::AlignofTy(t)
            }
            Tok::Punct("(") if self.type_start_at(self.i + 1) => {
                self.bump();
                let t = self.type_name()?;
                self.expect_punct(")")?;
                let e = self.unary_expr()?;
                ExprKind::Cast(t, Box::new(e))
            }
            _ => return self.postfix_expr(),
        };
        Ok(Expr { kind, pos })
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            let pos = self.pos();
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = Expr {
                    kind: ExprKind::Index(Box::new(e), Box::new(idx)),
                    pos,
                };
            } else if self.eat_punct("(") {
                let mut args = Vec::new();
                if !self.eat_punct(")") {
                    loop {
                        args.push(self.assignment_expr()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                    self.expect_punct(")")?;
                }
                e = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                    pos,
                };
            } else if self.eat_punct(".") {
                let f = self.expect_ident()?;
                e = Expr {
                    kind: ExprKind::Member(Box::new(e), f),
                    pos,
                };
            } else if self.eat_punct("->") {
                let f = self.expect_ident()?;
                e = Expr {
                    kind: ExprKind::Arrow(Box::new(e), f),
                    pos,
                };
            } else if self.eat_punct("++") {
                e = Expr {
                    kind: ExprKind::IncDec {
                        inc: true,
                        prefix: false,
                        arg: Box::new(e),
                    },
                    pos,
                };
            } else if self.eat_punct("--") {
                e = Expr {
                    kind: ExprKind::IncDec {
                        inc: false,
                        prefix: false,
                        arg: Box::new(e),
                    },
                    pos,
                };
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let pos = self.pos();
        let kind = match self.take() {
            Tok::IntLit {
                value,
                unsigned,
                long,
            } => ExprKind::IntLit {
                value: u128::from(value as u64).min(value),
                unsigned,
                long,
            },
            Tok::FloatLit { value, single } => ExprKind::FloatLit { value, single },
            Tok::CharLit(c) => ExprKind::CharLit(c),
            Tok::StrLit(s) => {
                // Adjacent string literals concatenate.
                let mut s = s;
                while let Tok::StrLit(next) = self.peek() {
                    s.push_str(next);
                    self.bump();
                }
                ExprKind::StrLit(s)
            }
            Tok::Ident(name) => match name.as_str() {
                "NULL" => ExprKind::Cast(
                    Ty::ptr(Ty::Void),
                    Box::new(Expr {
                        kind: ExprKind::IntLit {
                            value: 0,
                            unsigned: false,
                            long: false,
                        },
                        pos,
                    }),
                ),
                "true" => ExprKind::IntLit {
                    value: 1,
                    unsigned: false,
                    long: false,
                },
                "false" => ExprKind::IntLit {
                    value: 0,
                    unsigned: false,
                    long: false,
                },
                "INT_MAX" => lit(i64::from(i32::MAX) as u128, false, false),
                "INT_MIN" => {
                    return Ok(Expr {
                        kind: ExprKind::Unary(
                            UnOp::Neg,
                            Box::new(Expr {
                                kind: lit(1u128 << 31, false, true),
                                pos,
                            }),
                        ),
                        pos,
                    })
                }
                "UINT_MAX" => lit(u128::from(u32::MAX), true, false),
                "LONG_MAX" => lit(i64::MAX as u128, false, true),
                "ULONG_MAX" | "SIZE_MAX" | "UINT64_MAX" => lit(u128::from(u64::MAX), true, true),
                "CHAR_BIT" => lit(8, false, false),
                "SCHAR_MAX" => lit(127, false, false),
                "UCHAR_MAX" => lit(255, false, false),
                "SHRT_MAX" => lit(32767, false, false),
                "USHRT_MAX" => lit(65535, false, false),
                "INTPTR_MAX" => lit(i64::MAX as u128, false, true),
                _ => {
                    if let Some(v) = self.enum_consts.get(&name) {
                        lit(*v as u128, false, false)
                    } else {
                        ExprKind::Ident(name)
                    }
                }
            },
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                return Ok(e);
            }
            t => return self.err(format!("unexpected token `{t}` in expression")),
        };
        Ok(Expr { kind, pos })
    }

    // ── Statements ───────────────────────────────────────────────────────

    fn stmt(&mut self) -> PResult<Stmt> {
        let pos = self.pos();
        if self.eat_punct("{") {
            let mut body = Vec::new();
            while !self.eat_punct("}") {
                body.push(self.stmt()?);
            }
            return Ok(Stmt {
                kind: StmtKind::Block(body),
                pos,
            });
        }
        if self.eat_punct(";") {
            return Ok(Stmt {
                kind: StmtKind::Empty,
                pos,
            });
        }
        if self.is_kw("if") {
            self.bump();
            self.expect_punct("(")?;
            let c = self.expr()?;
            self.expect_punct(")")?;
            let then = Box::new(self.stmt()?);
            let els = if self.eat_kw("else") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt {
                kind: StmtKind::If(c, then, els),
                pos,
            });
        }
        if self.is_kw("while") {
            self.bump();
            self.expect_punct("(")?;
            let c = self.expr()?;
            self.expect_punct(")")?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt {
                kind: StmtKind::While(c, body),
                pos,
            });
        }
        if self.is_kw("do") {
            self.bump();
            let body = Box::new(self.stmt()?);
            if !self.eat_kw("while") {
                return self.err("expected `while` after do-body");
            }
            self.expect_punct("(")?;
            let c = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::DoWhile(body, c),
                pos,
            });
        }
        if self.is_kw("for") {
            self.bump();
            self.expect_punct("(")?;
            let init = if self.eat_punct(";") {
                None
            } else if self.at_type_start() {
                let d = self.local_decl()?;
                Some(Box::new(d))
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(Box::new(Stmt {
                    kind: StmtKind::Expr(e),
                    pos,
                }))
            };
            let cond = if matches!(self.peek(), Tok::Punct(";")) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            let step = if matches!(self.peek(), Tok::Punct(")")) {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(")")?;
            let body = Box::new(self.stmt()?);
            return Ok(Stmt {
                kind: StmtKind::For {
                    init,
                    cond,
                    step,
                    body,
                },
                pos,
            });
        }
        if self.is_kw("switch") {
            self.bump();
            self.expect_punct("(")?;
            let scrut = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct("{")?;
            let mut cases: Vec<SwitchCase> = Vec::new();
            while !self.eat_punct("}") {
                if self.eat_kw("case") {
                    let v = self.conditional_expr()?;
                    self.expect_punct(":")?;
                    cases.push(SwitchCase {
                        value: Some(v),
                        body: Vec::new(),
                    });
                } else if self.eat_kw("default") {
                    self.expect_punct(":")?;
                    cases.push(SwitchCase {
                        value: None,
                        body: Vec::new(),
                    });
                } else {
                    let s = self.stmt()?;
                    match cases.last_mut() {
                        Some(c) => c.body.push(s),
                        None => return self.err("statement before first case label"),
                    }
                }
            }
            return Ok(Stmt {
                kind: StmtKind::Switch(scrut, cases),
                pos,
            });
        }
        if self.is_kw("return") {
            self.bump();
            let e = if self.eat_punct(";") {
                None
            } else {
                let e = self.expr()?;
                self.expect_punct(";")?;
                Some(e)
            };
            return Ok(Stmt {
                kind: StmtKind::Return(e),
                pos,
            });
        }
        if self.is_kw("break") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Break,
                pos,
            });
        }
        if self.is_kw("continue") {
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Continue,
                pos,
            });
        }
        if self.at_type_start() && !self.is_kw("const") || self.is_decl_start() {
            return self.local_decl();
        }
        let e = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt {
            kind: StmtKind::Expr(e),
            pos,
        })
    }

    fn is_decl_start(&self) -> bool {
        self.at_type_start()
    }

    /// A local declaration statement: `T d1 = i1, d2 = i2, ...;`
    /// Multiple declarators become a block of single declarations.
    fn local_decl(&mut self) -> PResult<Stmt> {
        let pos = self.pos();
        let (base, is_const, is_typedef, is_static) = self.decl_specifiers()?;
        if is_typedef {
            let d = self.declarator()?;
            let ty = (d.wrap)(base);
            self.typedefs.insert(d.name, ty);
            self.expect_punct(";")?;
            return Ok(Stmt {
                kind: StmtKind::Empty,
                pos,
            });
        }
        // Bare struct/union/enum definition.
        if matches!(self.peek(), Tok::Punct(";")) {
            self.bump();
            return Ok(Stmt {
                kind: StmtKind::Empty,
                pos,
            });
        }
        let mut decls = Vec::new();
        loop {
            let d = self.declarator()?;
            let mut ty = (d.wrap)(base.clone());
            let mut obj_const = is_const;
            // `const T *p`: const qualifies the pointee, not the object.
            if is_const {
                if let Ty::Ptr { pointee, .. } = ty {
                    ty = Ty::Ptr {
                        pointee,
                        const_pointee: true,
                    };
                    obj_const = false;
                }
            }
            let init = if self.eat_punct("=") {
                Some(self.initialiser()?)
            } else {
                None
            };
            decls.push(Stmt {
                kind: StmtKind::Decl(Decl {
                    name: d.name,
                    ty,
                    is_const: obj_const,
                    is_static,
                    init,
                    pos,
                }),
                pos,
            });
            if !self.eat_punct(",") {
                break;
            }
        }
        self.expect_punct(";")?;
        if decls.len() == 1 {
            Ok(decls.pop().expect("one decl"))
        } else {
            Ok(Stmt {
                kind: StmtKind::DeclGroup(decls),
                pos,
            })
        }
    }

    fn initialiser(&mut self) -> PResult<Init> {
        if self.eat_punct("{") {
            let mut items = Vec::new();
            if !self.eat_punct("}") {
                loop {
                    items.push(self.initialiser()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                    if matches!(self.peek(), Tok::Punct("}")) {
                        break; // trailing comma
                    }
                }
                self.expect_punct("}")?;
            }
            Ok(Init::List(items))
        } else {
            Ok(Init::Expr(self.assignment_expr()?))
        }
    }

    // ── Top level ────────────────────────────────────────────────────────

    fn translation_unit(&mut self) -> PResult<Program> {
        let mut items = Vec::new();
        while !matches!(self.peek(), Tok::Eof) {
            if self.eat_punct(";") {
                continue;
            }
            let pos = self.pos();
            let (base, is_const, is_typedef, _is_static) = self.decl_specifiers()?;
            if is_typedef {
                let d = self.declarator()?;
                let ty = (d.wrap)(base);
                self.typedefs.insert(d.name, ty);
                self.expect_punct(";")?;
                continue;
            }
            if matches!(self.peek(), Tok::Punct(";")) {
                self.bump(); // bare struct/union/enum definition
                continue;
            }
            let d = self.declarator()?;
            let own_names = d.own_param_names.clone();
            let mut ty = (d.wrap)(base.clone());
            let mut obj_const = is_const;
            if is_const {
                if let Ty::Ptr { pointee, .. } = ty.clone() {
                    ty = Ty::Ptr {
                        pointee,
                        const_pointee: true,
                    };
                    obj_const = false;
                }
            }
            if let Ty::Func {
                ret,
                params: param_tys,
                variadic,
            } = ty.clone()
            {
                // Function definition or prototype. The declarator reduced
                // the parameter list to types; recover the declarator's own
                // parameter names for definitions.
                let names = own_names.unwrap_or_default();
                let body = if self.eat_punct("{") {
                    let mut stmts = Vec::new();
                    while !self.eat_punct("}") {
                        stmts.push(self.stmt()?);
                    }
                    Some(stmts)
                } else {
                    self.expect_punct(";")?;
                    None
                };
                let params = param_tys
                    .into_iter()
                    .zip(names.into_iter().chain(std::iter::repeat(String::new())))
                    .map(|(ty, name)| Param { name, ty })
                    .collect();
                items.push(Item::Func(FuncDef {
                    name: d.name,
                    ret: *ret,
                    params,
                    variadic,
                    body,
                    pos,
                }));
                continue;
            }
            // Global variable(s).
            let mut name = d.name;
            let mut gty = ty;
            loop {
                let init = if self.eat_punct("=") {
                    Some(self.initialiser()?)
                } else {
                    None
                };
                items.push(Item::Global(Decl {
                    name: std::mem::take(&mut name),
                    ty: gty.clone(),
                    is_const: obj_const,
                    is_static: false,
                    init,
                    pos,
                }));
                if !self.eat_punct(",") {
                    break;
                }
                let d2 = self.declarator()?;
                name = d2.name;
                gty = (d2.wrap)(base.clone());
            }
            self.expect_punct(";")?;
        }
        Ok(Program { items })
    }
}

fn lit(value: u128, unsigned: bool, long: bool) -> ExprKind {
    ExprKind::IntLit {
        value,
        unsigned,
        long,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Parsed {
        parse(src, TargetLayout::default()).expect("parse")
    }

    #[test]
    fn simple_function() {
        let p = parse_ok("int main(void) { return 0; }");
        assert_eq!(p.program.items.len(), 1);
        match &p.program.items[0] {
            Item::Func(f) => {
                assert_eq!(f.name, "main");
                assert_eq!(f.ret, Ty::int());
                assert!(f.params.is_empty());
                assert!(f.body.is_some());
            }
            other @ Item::Global(_) => panic!("expected function, got {other:?}"),
        }
    }

    #[test]
    fn parameter_names_survive() {
        let p = parse_ok("void f(int *p, int i) { *p = i; }");
        match &p.program.items[0] {
            Item::Func(f) => {
                assert_eq!(f.params[0].name, "p");
                assert_eq!(f.params[0].ty, Ty::ptr(Ty::int()));
                assert_eq!(f.params[1].name, "i");
            }
            other @ Item::Global(_) => panic!("{other:?}"),
        }
    }

    #[test]
    fn declarators_and_arrays() {
        let p = parse_ok("int main(void) { int x[2]; int *p = &x[0]; return *p; }");
        assert_eq!(p.program.items.len(), 1);
    }

    #[test]
    fn function_pointer_declarator() {
        let p = parse_ok("int g(int x) { return x; } int main(void) { int (*f)(int) = g; return f(3); }");
        match &p.program.items[1] {
            Item::Func(f) => {
                let body = f.body.as_ref().unwrap();
                match &body[0].kind {
                    StmtKind::Decl(d) => match &d.ty {
                        Ty::Ptr { pointee, .. } => {
                            assert!(matches!(**pointee, Ty::Func { .. }));
                        }
                        t => panic!("expected function pointer, got {t:?}"),
                    },
                    s => panic!("{s:?}"),
                }
            }
            other @ Item::Global(_) => panic!("{other:?}"),
        }
    }

    #[test]
    fn struct_union_typedef_enum() {
        let p = parse_ok(
            "typedef struct point { int x; int y; } point_t;\n\
             union u { int *p; uintptr_t ip; };\n\
             enum e { A, B = 5, C };\n\
             int main(void) { point_t q; q.x = B; return q.x + C; }",
        );
        assert_eq!(p.types.structs.len(), 2);
        assert!(!p.types.structs[0].is_union);
        assert!(p.types.structs[1].is_union);
    }

    #[test]
    fn casts_and_sizeof() {
        parse_ok(
            "int main(void) { int x; uintptr_t i = (uintptr_t)&x; \
             int *q = (int*)i; return (int)sizeof(int*) + (int)sizeof x; }",
        );
    }

    #[test]
    fn null_expands_to_void_ptr_cast() {
        let p = parse_ok("int main(void) { int *q = NULL; return q == NULL; }");
        assert_eq!(p.program.items.len(), 1);
    }

    #[test]
    fn const_pointee() {
        let p = parse_ok("int main(void) { const int *p; const int c = 3; return c; }");
        match &p.program.items[0] {
            Item::Func(f) => {
                let body = f.body.as_ref().unwrap();
                match &body[0].kind {
                    StmtKind::Decl(d) => {
                        assert!(matches!(
                            d.ty,
                            Ty::Ptr {
                                const_pointee: true,
                                ..
                            }
                        ));
                        assert!(!d.is_const);
                    }
                    s => panic!("{s:?}"),
                }
                match &body[1].kind {
                    StmtKind::Decl(d) => assert!(d.is_const),
                    s => panic!("{s:?}"),
                }
            }
            other @ Item::Global(_) => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_flow_statements() {
        parse_ok(
            "int main(void) { int s = 0; for (int i = 0; i < 10; i++) { \
             if (i % 2) continue; s += i; } \
             while (s > 100) { s--; break; } \
             do { s++; } while (0); \
             switch (s) { case 1: s = 2; break; default: s = 3; } \
             return s; }",
        );
    }

    #[test]
    fn string_literals_concatenate() {
        let p = parse_ok(r#"int main(void) { const char *s = "a" "b"; return s[0]; }"#);
        assert_eq!(p.program.items.len(), 1);
    }

    #[test]
    fn error_reports_position() {
        let e = parse("int main(void) { return 0 }", TargetLayout::default()).unwrap_err();
        assert!(e.pos.line >= 1);
        assert!(e.to_string().contains("expected"));
    }
}
