//! Recursive-descent parser for the TCL dialect.
//!
//! The grammar is a compact C subset plus the nesC constructs the Safe
//! TinyOS toolchain needs: `task` functions, `interrupt(VECTOR)` handlers,
//! `atomic` blocks, the `norace` qualifier, and (in [`Dialect::NesC`] mode)
//! `call`/`signal` interface invocations and `post`.

use crate::ast::*;
use crate::error::{CompileError, SourcePos};
use crate::lexer::{lex, Tok, Token};
use crate::types::IntKind;

/// Which language variant to accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// Plain TCL: no `call`/`signal`/`post`.
    Plain,
    /// nesC module bodies: interface calls and task posting allowed.
    NesC,
}

/// Parses a whole translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse_unit(src: &str, dialect: Dialect) -> Result<Unit, CompileError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        dialect,
    };
    let mut items = Vec::new();
    while !p.at_eof() {
        items.push(p.item()?);
    }
    Ok(Unit { items })
}

const TYPE_KEYWORDS: &[(&str, IntKind)] = &[
    ("uint8_t", IntKind::U8),
    ("int8_t", IntKind::I8),
    ("uint16_t", IntKind::U16),
    ("int16_t", IntKind::I16),
    ("uint32_t", IntKind::U32),
    ("int32_t", IntKind::I32),
    ("bool", IntKind::U8),
    ("result_t", IntKind::U8),
    ("char", IntKind::I8),
    ("int", IntKind::I16),
];

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    dialect: Dialect,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek().tok, Tok::Eof)
    }

    fn here(&self) -> SourcePos {
        self.peek().pos
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err_here(&self, msg: impl Into<String>) -> CompileError {
        CompileError::new(self.here(), msg)
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), CompileError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err_here(format!("expected `{p}`, found {:?}", self.peek().tok)))
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_ident(&mut self) -> Result<(String, SourcePos), CompileError> {
        let pos = self.here();
        match self.bump().tok {
            Tok::Ident(s) => Ok((s, pos)),
            t => Err(CompileError::new(
                pos,
                format!("expected identifier, found {t:?}"),
            )),
        }
    }

    fn int_kind_of(&self, t: &Token) -> Option<IntKind> {
        match &t.tok {
            Tok::Ident(s) => TYPE_KEYWORDS
                .iter()
                .find(|(k, _)| k == s)
                .map(|&(_, ik)| ik),
            _ => None,
        }
    }

    /// Whether the current token begins a type expression.
    fn at_type(&self) -> bool {
        self.peek().is_kw("void")
            || self.peek().is_kw("struct")
            || self.int_kind_of(self.peek()).is_some()
    }

    fn type_expr(&mut self) -> Result<TypeExpr, CompileError> {
        let base = if self.eat_kw("void") {
            BaseType::Void
        } else if self.eat_kw("struct") {
            let (name, _) = self.expect_ident()?;
            BaseType::Struct(name)
        } else if let Some(ik) = self.int_kind_of(self.peek()) {
            self.bump();
            BaseType::Int(ik)
        } else {
            return Err(self.err_here("expected a type"));
        };
        let mut ptr_depth = 0;
        while self.eat_punct("*") {
            ptr_depth += 1;
        }
        Ok(TypeExpr { base, ptr_depth })
    }

    fn array_dims(&mut self) -> Result<Vec<ArrayDim>, CompileError> {
        let mut dims = Vec::new();
        while self.eat_punct("[") {
            let d = match &self.peek().tok {
                Tok::Int(v) => {
                    let v = *v;
                    self.bump();
                    if v <= 0 {
                        return Err(self.err_here("array dimension must be positive"));
                    }
                    ArrayDim::Lit(v as u32)
                }
                Tok::Ident(_) => {
                    let (name, _) = self.expect_ident()?;
                    ArrayDim::Named(name)
                }
                _ => return Err(self.err_here("expected array dimension")),
            };
            self.expect_punct("]")?;
            dims.push(d);
        }
        Ok(dims)
    }

    fn item(&mut self) -> Result<Item, CompileError> {
        let pos = self.here();
        // struct definition vs. struct-typed declaration
        if self.peek().is_kw("struct") && matches!(self.peek2().tok, Tok::Ident(_)) {
            // Look two tokens past "struct Name": `{` means definition.
            let third = &self.toks[(self.pos + 2).min(self.toks.len() - 1)];
            if third.is_punct("{") {
                return self.struct_decl().map(Item::Struct);
            }
        }
        if self.peek().is_kw("enum") {
            return self.enum_decl().map(Item::Enum);
        }
        // Qualifiers that may precede globals or functions.
        let mut is_const = false;
        let mut norace = false;
        let mut kind = FuncKind::Normal;
        let mut inline = false;
        loop {
            if self.eat_kw("const") {
                is_const = true;
            } else if self.eat_kw("norace") {
                norace = true;
            } else if self.eat_kw("inline") {
                inline = true;
            } else if self.dialect == Dialect::NesC
                && (self.peek().is_kw("command") || self.peek().is_kw("event"))
            {
                // `command`/`event` carry no extra meaning here: the nesC
                // frontend derives the role from the interface declaration.
                self.bump();
            } else if self.eat_kw("task") {
                kind = FuncKind::Task;
            } else if self.eat_kw("interrupt") {
                self.expect_punct("(")?;
                let (vec_name, _) = self.expect_ident()?;
                self.expect_punct(")")?;
                kind = FuncKind::Interrupt(vec_name);
            } else {
                break;
            }
        }
        let ty = self.type_expr()?;
        let (mut name, npos) = self.expect_ident()?;
        // nesC interface-member implementations: `Iface.method(...)`.
        if self.dialect == Dialect::NesC && self.peek().is_punct(".") {
            self.bump();
            let (m, _) = self.expect_ident()?;
            name = format!("{name}.{m}");
            if !self.peek().is_punct("(") {
                return Err(self.err_here("dotted names are only valid for functions"));
            }
        }
        if self.peek().is_punct("(") {
            if is_const || norace {
                return Err(CompileError::new(
                    pos,
                    "`const`/`norace` invalid on functions",
                ));
            }
            return self.func_decl(kind, inline, ty, name, npos).map(Item::Func);
        }
        if kind != FuncKind::Normal || inline {
            return Err(CompileError::new(
                pos,
                "`task`/`interrupt`/`inline` require a function",
            ));
        }
        let dims = self.array_dims()?;
        let init = if self.eat_punct("=") {
            Some(self.initializer()?)
        } else {
            None
        };
        self.expect_punct(";")?;
        Ok(Item::Global(GlobalDecl {
            sig: VarSig {
                ty,
                name,
                dims,
                pos: npos,
            },
            init,
            norace,
            is_const,
        }))
    }

    fn initializer(&mut self) -> Result<Init, CompileError> {
        if self.eat_punct("{") {
            let mut items = Vec::new();
            loop {
                if self.eat_punct("}") {
                    break;
                }
                items.push(self.initializer()?);
                if !self.eat_punct(",") {
                    self.expect_punct("}")?;
                    break;
                }
            }
            return Ok(Init::List(items));
        }
        if let Tok::Str(s) = &self.peek().tok {
            let s = s.clone();
            self.bump();
            return Ok(Init::Str(s));
        }
        Ok(Init::Expr(self.expr()?))
    }

    fn struct_decl(&mut self) -> Result<StructDecl, CompileError> {
        let pos = self.here();
        assert!(self.eat_kw("struct"));
        let (name, _) = self.expect_ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        while !self.eat_punct("}") {
            let ty = self.type_expr()?;
            let (fname, fpos) = self.expect_ident()?;
            let dims = self.array_dims()?;
            self.expect_punct(";")?;
            fields.push(VarSig {
                ty,
                name: fname,
                dims,
                pos: fpos,
            });
        }
        self.expect_punct(";")?;
        Ok(StructDecl { name, fields, pos })
    }

    fn enum_decl(&mut self) -> Result<EnumDecl, CompileError> {
        let pos = self.here();
        assert!(self.eat_kw("enum"));
        self.expect_punct("{")?;
        let mut variants = Vec::new();
        loop {
            if self.eat_punct("}") {
                break;
            }
            let (name, _) = self.expect_ident()?;
            let value = if self.eat_punct("=") {
                Some(self.expr()?)
            } else {
                None
            };
            variants.push((name, value));
            if !self.eat_punct(",") {
                self.expect_punct("}")?;
                break;
            }
        }
        self.expect_punct(";")?;
        Ok(EnumDecl { variants, pos })
    }

    fn func_decl(
        &mut self,
        kind: FuncKind,
        inline: bool,
        ret: TypeExpr,
        name: String,
        pos: SourcePos,
    ) -> Result<FuncDecl, CompileError> {
        self.expect_punct("(")?;
        let mut params = Vec::new();
        if !self.eat_punct(")") {
            if self.peek().is_kw("void") && self.peek2().is_punct(")") {
                self.bump();
                self.bump();
            } else {
                loop {
                    let ty = self.type_expr()?;
                    let (pname, ppos) = self.expect_ident()?;
                    params.push(VarSig {
                        ty,
                        name: pname,
                        dims: Vec::new(),
                        pos: ppos,
                    });
                    if !self.eat_punct(",") {
                        self.expect_punct(")")?;
                        break;
                    }
                }
            }
        }
        self.expect_punct("{")?;
        let body = self.block_rest()?;
        Ok(FuncDecl {
            kind,
            inline,
            ret,
            name,
            params,
            body,
            pos,
        })
    }

    /// Parses the remainder of a block after the opening `{`.
    fn block_rest(&mut self) -> Result<Block, CompileError> {
        let mut stmts = Vec::new();
        while !self.eat_punct("}") {
            if self.at_eof() {
                return Err(self.err_here("unexpected end of input in block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(Block { stmts })
    }

    fn braced_block(&mut self) -> Result<Block, CompileError> {
        self.expect_punct("{")?;
        self.block_rest()
    }

    /// A block, or a single statement wrapped in a block.
    fn block_or_stmt(&mut self) -> Result<Block, CompileError> {
        if self.peek().is_punct("{") {
            self.braced_block()
        } else {
            Ok(Block {
                stmts: vec![self.stmt()?],
            })
        }
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        if self.peek().is_punct("{") {
            return Ok(Stmt::Block(self.braced_block()?));
        }
        if self.eat_kw("if") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let then_ = self.block_or_stmt()?;
            let else_ = if self.eat_kw("else") {
                self.block_or_stmt()?
            } else {
                Block::default()
            };
            return Ok(Stmt::If { cond, then_, else_ });
        }
        if self.eat_kw("while") {
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::While { cond, body });
        }
        if self.eat_kw("do") {
            let body = self.block_or_stmt()?;
            if !self.eat_kw("while") {
                return Err(self.err_here("expected `while` after do-block"));
            }
            self.expect_punct("(")?;
            let cond = self.expr()?;
            self.expect_punct(")")?;
            self.expect_punct(";")?;
            return Ok(Stmt::DoWhile { body, cond });
        }
        if self.eat_kw("for") {
            self.expect_punct("(")?;
            let init = if self.peek().is_punct(";") {
                self.bump();
                None
            } else {
                let s = self.simple_stmt()?;
                self.expect_punct(";")?;
                Some(Box::new(s))
            };
            let cond = if self.peek().is_punct(";") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            let step = if self.peek().is_punct(")") {
                None
            } else {
                Some(Box::new(self.simple_stmt()?))
            };
            self.expect_punct(")")?;
            let body = self.block_or_stmt()?;
            return Ok(Stmt::For {
                init,
                cond,
                step,
                body,
            });
        }
        if self.peek().is_kw("return") {
            let pos = self.here();
            self.bump();
            let e = if self.peek().is_punct(";") {
                None
            } else {
                Some(self.expr()?)
            };
            self.expect_punct(";")?;
            return Ok(Stmt::Return(e, pos));
        }
        if self.peek().is_kw("break") {
            let pos = self.here();
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt::Break(pos));
        }
        if self.peek().is_kw("continue") {
            let pos = self.here();
            self.bump();
            self.expect_punct(";")?;
            return Ok(Stmt::Continue(pos));
        }
        if self.eat_kw("atomic") {
            let b = self.block_or_stmt()?;
            return Ok(Stmt::Atomic(b));
        }
        let s = self.simple_stmt()?;
        self.expect_punct(";")?;
        Ok(s)
    }

    /// A declaration, assignment, or expression statement (no trailing
    /// semicolon — used directly by `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        if self.at_type() {
            let ty = self.type_expr()?;
            let (name, pos) = self.expect_ident()?;
            let dims = self.array_dims()?;
            let init = if self.eat_punct("=") {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::Decl {
                sig: VarSig {
                    ty,
                    name,
                    dims,
                    pos,
                },
                init,
            });
        }
        let pos = self.here();
        let lhs = self.expr()?;
        const ASSIGN_OPS: &[(&str, Option<BinOp>)] = &[
            ("=", None),
            ("+=", Some(BinOp::Add)),
            ("-=", Some(BinOp::Sub)),
            ("*=", Some(BinOp::Mul)),
            ("/=", Some(BinOp::Div)),
            ("%=", Some(BinOp::Mod)),
            ("&=", Some(BinOp::And)),
            ("|=", Some(BinOp::Or)),
            ("^=", Some(BinOp::Xor)),
            ("<<=", Some(BinOp::Shl)),
            (">>=", Some(BinOp::Shr)),
        ];
        for (p, op) in ASSIGN_OPS {
            if self.eat_punct(p) {
                let rhs = self.expr()?;
                return Ok(Stmt::Assign {
                    op: *op,
                    lhs,
                    rhs,
                    pos,
                });
            }
        }
        Ok(Stmt::Expr(lhs))
    }

    // ----- expressions (precedence climbing) -----

    fn expr(&mut self) -> Result<Expr, CompileError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, CompileError> {
        let c = self.binary(0)?;
        if self.eat_punct("?") {
            let pos = c.pos;
            let a = self.expr()?;
            self.expect_punct(":")?;
            let b = self.ternary()?;
            return Ok(Expr::new(
                ExprKind::Ternary(Box::new(c), Box::new(a), Box::new(b)),
                pos,
            ));
        }
        Ok(c)
    }

    fn binary(&mut self, min_lvl: u8) -> Result<Expr, CompileError> {
        const LEVELS: &[&[(&str, BinOp)]] = &[
            &[("||", BinOp::LOr)],
            &[("&&", BinOp::LAnd)],
            &[("|", BinOp::Or)],
            &[("^", BinOp::Xor)],
            &[("&", BinOp::And)],
            &[("==", BinOp::Eq), ("!=", BinOp::Ne)],
            &[
                ("<=", BinOp::Le),
                (">=", BinOp::Ge),
                ("<", BinOp::Lt),
                (">", BinOp::Gt),
            ],
            &[("<<", BinOp::Shl), (">>", BinOp::Shr)],
            &[("+", BinOp::Add), ("-", BinOp::Sub)],
            &[("*", BinOp::Mul), ("/", BinOp::Div), ("%", BinOp::Mod)],
        ];
        if min_lvl as usize >= LEVELS.len() {
            return self.unary();
        }
        let mut lhs = self.binary(min_lvl + 1)?;
        'outer: loop {
            for (p, op) in LEVELS[min_lvl as usize] {
                if self.peek().is_punct(p) {
                    let pos = self.here();
                    self.bump();
                    let rhs = self.binary(min_lvl + 1)?;
                    lhs = Expr::new(ExprKind::Binary(*op, Box::new(lhs), Box::new(rhs)), pos);
                    continue 'outer;
                }
            }
            break;
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.here();
        if self.eat_punct("-") {
            return Ok(Expr::new(
                ExprKind::Unary(UnOp::Neg, Box::new(self.unary()?)),
                pos,
            ));
        }
        if self.eat_punct("~") {
            return Ok(Expr::new(
                ExprKind::Unary(UnOp::BitNot, Box::new(self.unary()?)),
                pos,
            ));
        }
        if self.eat_punct("!") {
            return Ok(Expr::new(
                ExprKind::Unary(UnOp::Not, Box::new(self.unary()?)),
                pos,
            ));
        }
        if self.eat_punct("*") {
            return Ok(Expr::new(ExprKind::Deref(Box::new(self.unary()?)), pos));
        }
        if self.eat_punct("&") {
            return Ok(Expr::new(ExprKind::AddrOf(Box::new(self.unary()?)), pos));
        }
        if self.eat_punct("++") {
            let t = self.unary()?;
            return Ok(Expr::new(
                ExprKind::IncDec {
                    target: Box::new(t),
                    inc: true,
                },
                pos,
            ));
        }
        if self.eat_punct("--") {
            let t = self.unary()?;
            return Ok(Expr::new(
                ExprKind::IncDec {
                    target: Box::new(t),
                    inc: false,
                },
                pos,
            ));
        }
        // Cast: "(" type ")" unary
        if self.peek().is_punct("(") {
            let next = self.peek2();
            let is_type =
                next.is_kw("void") || next.is_kw("struct") || self.int_kind_of(next).is_some();
            if is_type {
                self.bump(); // (
                let ty = self.type_expr()?;
                self.expect_punct(")")?;
                let e = self.unary()?;
                return Ok(Expr::new(ExprKind::Cast(ty, Box::new(e)), pos));
            }
        }
        if self.peek().is_kw("sizeof") {
            self.bump();
            self.expect_punct("(")?;
            let e = if self.at_type() {
                let ty = self.type_expr()?;
                Expr::new(ExprKind::SizeofType(ty), pos)
            } else {
                let inner = self.expr()?;
                Expr::new(ExprKind::SizeofExpr(Box::new(inner)), pos)
            };
            self.expect_punct(")")?;
            return Ok(e);
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr, CompileError> {
        let mut e = self.primary()?;
        loop {
            let pos = self.here();
            if self.eat_punct("[") {
                let idx = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::new(ExprKind::Index(Box::new(e), Box::new(idx)), pos);
            } else if self.eat_punct(".") {
                let (f, _) = self.expect_ident()?;
                e = Expr::new(ExprKind::Field(Box::new(e), f), pos);
            } else if self.eat_punct("->") {
                let (f, _) = self.expect_ident()?;
                e = Expr::new(ExprKind::Arrow(Box::new(e), f), pos);
            } else if self.peek().is_punct("(") {
                // Calls are only valid directly on identifiers.
                if let ExprKind::Ident(name) = &e.kind {
                    let name = name.clone();
                    self.bump();
                    let args = self.call_args()?;
                    e = Expr::new(ExprKind::Call { name, args }, e.pos);
                } else {
                    return Err(self.err_here("function pointers are not supported"));
                }
            } else if self.eat_punct("++") {
                e = Expr::new(
                    ExprKind::IncDec {
                        target: Box::new(e),
                        inc: true,
                    },
                    pos,
                );
            } else if self.eat_punct("--") {
                e = Expr::new(
                    ExprKind::IncDec {
                        target: Box::new(e),
                        inc: false,
                    },
                    pos,
                );
            } else {
                break;
            }
        }
        Ok(e)
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, CompileError> {
        let mut args = Vec::new();
        if !self.eat_punct(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat_punct(",") {
                    self.expect_punct(")")?;
                    break;
                }
            }
        }
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr, CompileError> {
        let pos = self.here();
        if self.dialect == Dialect::NesC {
            if self.peek().is_kw("call") || self.peek().is_kw("signal") {
                let kind = if self.eat_kw("call") {
                    IfaceCallKind::Call
                } else {
                    self.bump();
                    IfaceCallKind::Signal
                };
                let (iface, _) = self.expect_ident()?;
                self.expect_punct(".")?;
                let (method, _) = self.expect_ident()?;
                self.expect_punct("(")?;
                let args = self.call_args()?;
                return Ok(Expr::new(
                    ExprKind::IfaceCall {
                        kind,
                        iface,
                        method,
                        args,
                    },
                    pos,
                ));
            }
            if self.eat_kw("post") {
                let (task, _) = self.expect_ident()?;
                self.expect_punct("(")?;
                self.expect_punct(")")?;
                return Ok(Expr::new(ExprKind::Post(task), pos));
            }
        }
        match self.bump().tok {
            Tok::Int(v) => Ok(Expr::new(ExprKind::Int(v), pos)),
            Tok::Str(s) => Ok(Expr::new(ExprKind::Str(s), pos)),
            Tok::Ident(s) => Ok(Expr::new(ExprKind::Ident(s), pos)),
            Tok::Punct("(") => {
                let e = self.expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            t => Err(CompileError::new(
                pos,
                format!("expected expression, found {t:?}"),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(src: &str) -> Unit {
        parse_unit(src, Dialect::Plain).unwrap()
    }

    #[test]
    fn parses_globals_and_functions() {
        let u = unit("uint8_t x = 3; const uint16_t tab[4] = {1,2,3,4}; void f(void) { x = 1; }");
        assert_eq!(u.items.len(), 3);
        assert!(matches!(&u.items[0], Item::Global(g) if g.sig.name == "x"));
        assert!(matches!(&u.items[1], Item::Global(g) if g.is_const && g.sig.dims.len() == 1));
        assert!(matches!(&u.items[2], Item::Func(f) if f.name == "f" && f.params.is_empty()));
    }

    #[test]
    fn parses_struct_and_enum() {
        let u = unit("struct msg { uint8_t len; uint8_t data[8]; }; enum { A, B = 5, C };");
        assert!(matches!(&u.items[0], Item::Struct(s) if s.fields.len() == 2));
        assert!(matches!(&u.items[1], Item::Enum(e) if e.variants.len() == 3));
    }

    #[test]
    fn struct_typed_global_not_confused_with_definition() {
        let u = unit("struct msg { uint8_t len; }; struct msg m;");
        assert!(matches!(&u.items[1], Item::Global(g) if g.sig.name == "m"));
    }

    #[test]
    fn parses_control_flow() {
        let u = unit(
            "void f(uint8_t n) {
                uint8_t i;
                for (i = 0; i < n; i++) { if (i == 3) break; else continue; }
                while (n) { n--; }
                do { n++; } while (n < 3);
            }",
        );
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert_eq!(f.body.stmts.len(), 4);
    }

    #[test]
    fn parses_task_interrupt_atomic() {
        let u = unit(
            "task void work() { atomic { } }
             interrupt(TIMER0) void tick() { }",
        );
        assert!(matches!(&u.items[0], Item::Func(f) if f.kind == FuncKind::Task));
        assert!(
            matches!(&u.items[1], Item::Func(f) if f.kind == FuncKind::Interrupt("TIMER0".into()))
        );
    }

    #[test]
    fn precedence_binds_correctly() {
        let u = unit("uint16_t x = 1 + 2 * 3;");
        let Item::Global(g) = &u.items[0] else {
            panic!()
        };
        let Some(Init::Expr(e)) = &g.init else {
            panic!()
        };
        // (1 + (2 * 3))
        let ExprKind::Binary(BinOp::Add, _, rhs) = &e.kind else {
            panic!("got {e:?}")
        };
        assert!(matches!(&rhs.kind, ExprKind::Binary(BinOp::Mul, _, _)));
    }

    #[test]
    fn casts_and_sizeof() {
        let u = unit("void f() { uint16_t x; x = (uint16_t) 3; x = sizeof(uint32_t); }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert!(matches!(
            &f.body.stmts[1],
            Stmt::Assign { rhs, .. } if matches!(&rhs.kind, ExprKind::Cast(..))
        ));
        assert!(matches!(
            &f.body.stmts[2],
            Stmt::Assign { rhs, .. } if matches!(&rhs.kind, ExprKind::SizeofType(..))
        ));
    }

    #[test]
    fn nesc_call_signal_post() {
        let u = parse_unit(
            "task void t() { } void f() { call Timer.start(250); signal Send.done(0); post t(); }",
            Dialect::NesC,
        )
        .unwrap();
        let Item::Func(f) = &u.items[1] else { panic!() };
        assert!(matches!(
            &f.body.stmts[0],
            Stmt::Expr(e) if matches!(&e.kind, ExprKind::IfaceCall { kind: IfaceCallKind::Call, .. })
        ));
        assert!(matches!(
            &f.body.stmts[2],
            Stmt::Expr(e) if matches!(&e.kind, ExprKind::Post(t) if t == "t")
        ));
    }

    #[test]
    fn call_keyword_is_plain_ident_in_plain_dialect() {
        let u = unit("uint8_t call = 1;");
        assert!(matches!(&u.items[0], Item::Global(g) if g.sig.name == "call"));
    }

    #[test]
    fn rejects_function_pointer_call() {
        assert!(parse_unit("void f() { tab[0](); }", Dialect::Plain).is_err());
    }

    #[test]
    fn pointer_params_and_arrow() {
        let u = unit("struct m { uint8_t a; }; uint8_t f(struct m * p) { return p->a; }");
        let Item::Func(f) = &u.items[1] else { panic!() };
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty.ptr_depth, 1);
    }

    #[test]
    fn ternary_parses() {
        let u = unit("void f(uint8_t a) { a = a ? 1 : 2; }");
        let Item::Func(f) = &u.items[0] else { panic!() };
        assert!(matches!(
            &f.body.stmts[0],
            Stmt::Assign { rhs, .. } if matches!(&rhs.kind, ExprKind::Ternary(..))
        ));
    }
}
