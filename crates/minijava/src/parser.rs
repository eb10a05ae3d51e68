//! Recursive-descent parser for the MiniJava subset. Tokens are `Copy`
//! and the tree borrows its names from the source, so parsing allocates
//! only the token vector and the tree's own vectors and boxes.

use std::borrow::Cow;

use crate::ast::*;
use crate::error::MjError;
use crate::lexer::{lex, Tok, Token};

/// Parses MiniJava source into an AST.
///
/// # Errors
///
/// Lexical or syntax errors with source positions.
pub fn parse(source: &str) -> Result<Module<'_>, MjError> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut classes = Vec::new();
    while !p.at(&Tok::Eof) {
        classes.push(p.class()?);
    }
    Ok(Module { classes })
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Token<'a> {
        self.tokens[self.pos]
    }

    fn peek2(&self) -> Tok<'a> {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].tok
    }

    fn at(&self, tok: &Tok) -> bool {
        &self.peek().tok == tok
    }

    fn bump(&mut self) -> Token<'a> {
        let t = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.at(tok) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Tok) -> Result<Token<'a>, MjError> {
        if self.at(tok) {
            Ok(self.bump())
        } else {
            Err(self.unexpected(&format!("expected {}", tok.describe())))
        }
    }

    fn unexpected(&self, context: &str) -> MjError {
        let t = self.peek();
        MjError::new(
            t.line,
            t.col,
            format!("{context}, found {}", t.tok.describe()),
        )
    }

    fn ident(&mut self) -> Result<(&'a str, usize), MjError> {
        let t = self.peek();
        match t.tok {
            Tok::Ident(name) => {
                self.bump();
                Ok((name, t.line))
            }
            _ => Err(self.unexpected("expected an identifier")),
        }
    }

    fn class(&mut self) -> Result<ClassDecl<'a>, MjError> {
        let kw = self.expect(&Tok::Class)?;
        let (name, _) = self.ident()?;
        let superclass = if self.eat(&Tok::Extends) {
            Some(self.ident()?.0)
        } else {
            None
        };
        self.expect(&Tok::LBrace)?;
        let mut fields = Vec::new();
        let mut static_fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(&Tok::RBrace) {
            self.member(&mut fields, &mut static_fields, &mut methods)?;
        }
        Ok(ClassDecl {
            name,
            superclass,
            fields,
            static_fields,
            methods,
            line: kw.line,
        })
    }

    /// Parses one class member: a field `T name;`, a static field
    /// `static T name;`, or a method.
    fn member(
        &mut self,
        fields: &mut Vec<(&'a str, &'a str)>,
        static_fields: &mut Vec<(&'a str, &'a str)>,
        methods: &mut Vec<MethodDecl<'a>>,
    ) -> Result<(), MjError> {
        let mut is_public = false;
        let mut is_static = false;
        loop {
            if self.eat(&Tok::Public) {
                is_public = true;
            } else if self.eat(&Tok::Static) {
                is_static = true;
            } else {
                break;
            }
        }
        let line = self.peek().line;
        let ret_ty = if self.eat(&Tok::Void) {
            None
        } else {
            Some(self.ident()?.0)
        };
        let (name, _) = self.ident()?;
        if self.at(&Tok::LParen) {
            // Method.
            let params = self.params()?;
            let body = self.block()?;
            let is_main = is_public
                && is_static
                && ret_ty.is_none()
                && name == "main"
                && params.len() == 1
                && params[0].ty == "String[]";
            methods.push(MethodDecl {
                is_static,
                ret_ty,
                name,
                params,
                body,
                is_main,
                line,
            });
        } else {
            // Field: `T name;` or `static T name;`
            if is_public {
                return Err(MjError::new(
                    line,
                    1,
                    "fields may not be declared public in MiniJava",
                ));
            }
            let ty = ret_ty.ok_or_else(|| MjError::new(line, 1, "fields cannot be void"))?;
            self.expect(&Tok::Semi)?;
            if is_static {
                static_fields.push((name, ty));
            } else {
                fields.push((name, ty));
            }
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<Param<'a>>, MjError> {
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                let (ty, _) = self.ident()?;
                let mut ty = Cow::Borrowed(ty);
                // Accept `String[] args` for the main signature.
                if self.eat(&Tok::LBracket) {
                    self.expect(&Tok::RBracket)?;
                    ty.to_mut().push_str("[]");
                }
                let (name, _) = self.ident()?;
                params.push(Param { ty, name });
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma)?;
            }
        }
        Ok(params)
    }

    fn block(&mut self) -> Result<Block<'a>, MjError> {
        self.expect(&Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&Tok::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt<'a>, MjError> {
        let line = self.peek().line;
        match self.peek().tok {
            Tok::Return => {
                self.bump();
                let value = if self.at(&Tok::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return { value, line })
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.cond()?;
                self.expect(&Tok::RParen)?;
                let then_block = self.block()?;
                let else_block = if self.eat(&Tok::Else) {
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    line,
                })
            }
            Tok::While => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.cond()?;
                self.expect(&Tok::RParen)?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body, line })
            }
            Tok::Ident(first) => {
                // Could be: `T x;` / `T x = e;` (decl) or an assignment /
                // expression statement. A declaration is `Ident Ident …`.
                if matches!(self.peek2(), Tok::Ident(_)) {
                    self.bump();
                    let (name, _) = self.ident()?;
                    let init = if self.eat(&Tok::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(&Tok::Semi)?;
                    Ok(Stmt::VarDecl {
                        ty: first,
                        name,
                        init,
                        line,
                    })
                } else {
                    self.assign_or_expr(line)
                }
            }
            Tok::This | Tok::New => self.assign_or_expr(line),
            _ => Err(self.unexpected("expected a statement")),
        }
    }

    /// Parses `lvalue = expr;` or a bare expression statement.
    fn assign_or_expr(&mut self, line: usize) -> Result<Stmt<'a>, MjError> {
        let e = self.expr()?;
        if self.eat(&Tok::Assign) {
            let value = self.expr()?;
            self.expect(&Tok::Semi)?;
            let target = match e {
                Expr::Name { name, .. } => Target::Var(name),
                Expr::FieldAccess { base, field, .. } => Target::Field(base, field),
                _ => {
                    return Err(MjError::new(
                        line,
                        1,
                        "assignment target must be a variable or a field access",
                    ))
                }
            };
            Ok(Stmt::Assign {
                target,
                value,
                line,
            })
        } else {
            self.expect(&Tok::Semi)?;
            if !matches!(e, Expr::Call { .. }) {
                return Err(MjError::new(line, 1, "expression statements must be calls"));
            }
            Ok(Stmt::Expr { expr: e, line })
        }
    }

    fn cond(&mut self) -> Result<Cond<'a>, MjError> {
        if self.eat(&Tok::True) {
            return Ok(Cond::True);
        }
        if self.eat(&Tok::False) {
            return Ok(Cond::False);
        }
        let a = self.cond_operand()?;
        let eq = if self.eat(&Tok::EqEq) {
            true
        } else if self.eat(&Tok::NotEq) {
            false
        } else {
            return Err(self.unexpected("expected `==` or `!=` in condition"));
        };
        let b = self.cond_operand()?;
        Ok(if eq { Cond::Eq(a, b) } else { Cond::Ne(a, b) })
    }

    fn cond_operand(&mut self) -> Result<CondOperand<'a>, MjError> {
        if self.eat(&Tok::Null) {
            return Ok(CondOperand::Null);
        }
        if self.eat(&Tok::This) {
            return Ok(CondOperand::This);
        }
        let (name, _) = self.ident()?;
        Ok(CondOperand::Var(name))
    }

    fn expr(&mut self) -> Result<Expr<'a>, MjError> {
        let mut e = self.primary()?;
        // Postfix chain: field accesses and calls.
        while self.eat(&Tok::Dot) {
            let (name, line) = self.ident()?;
            if self.at(&Tok::LParen) {
                let args = self.args()?;
                e = Expr::Call {
                    base: Box::new(e),
                    method: name,
                    args,
                    line,
                };
            } else {
                e = Expr::FieldAccess {
                    base: Box::new(e),
                    field: name,
                    line,
                };
            }
        }
        Ok(e)
    }

    fn args(&mut self) -> Result<Vec<Expr<'a>>, MjError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma)?;
            }
        }
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr<'a>, MjError> {
        let t = self.peek();
        match t.tok {
            Tok::Null => {
                self.bump();
                Ok(Expr::Null)
            }
            Tok::This => {
                self.bump();
                Ok(Expr::This { line: t.line })
            }
            Tok::New => {
                self.bump();
                let (class, line) = self.ident()?;
                self.expect(&Tok::LParen)?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::New { class, line })
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(Expr::Name { name, line: t.line })
            }
            _ => Err(self.unexpected("expected an expression")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_classes_fields_methods() {
        let m = parse(
            "class A extends B { Object f; Object id(Object p) { return p; } }\n\
             class B { }",
        )
        .unwrap();
        assert_eq!(m.classes.len(), 2);
        let a = &m.classes[0];
        assert_eq!(a.superclass, Some("B"));
        assert_eq!(a.fields, vec![("f", "Object")]);
        assert_eq!(a.methods[0].name, "id");
        assert_eq!(a.methods[0].params.len(), 1);
    }

    #[test]
    fn recognizes_main() {
        let m = parse("class Main { public static void main(String[] args) { } }").unwrap();
        assert!(m.classes[0].methods[0].is_main);
        assert!(m.classes[0].methods[0].is_static);
    }

    #[test]
    fn parses_statements() {
        let m = parse(
            "class C { void m(Object a, Object b) {\n\
               Object x = new C();\n\
               x = a;\n\
               this.f = x;\n\
               Object y = x.f;\n\
               if (a == b) { a = b; } else { b = a; }\n\
               while (a != null) { a = null; }\n\
               this.m(a, b);\n\
               return;\n\
             } Object f; }",
        )
        .unwrap();
        let body = &m.classes[0].methods[0].body;
        assert_eq!(body.len(), 8);
        assert!(matches!(body[0], Stmt::VarDecl { .. }));
        assert!(matches!(
            body[2],
            Stmt::Assign {
                target: Target::Field(..),
                ..
            }
        ));
        assert!(matches!(body[5], Stmt::While { .. }));
        assert!(matches!(body[7], Stmt::Return { value: None, .. }));
    }

    #[test]
    fn parses_nested_calls_and_chains() {
        let m = parse("class C { Object g(Object p) { return this.g(this.g(p)).f; } Object f; }")
            .unwrap();
        let Stmt::Return { value: Some(e), .. } = &m.classes[0].methods[0].body[0] else {
            panic!("expected return");
        };
        assert!(matches!(e, Expr::FieldAccess { .. }));
    }

    #[test]
    fn rejects_bad_targets() {
        let err = parse("class C { void m() { new C() = null; } }").unwrap_err();
        assert!(err.message.contains("assignment target"));
    }

    #[test]
    fn rejects_non_call_expression_statements() {
        let err = parse("class C { void m(Object a) { a.f; } }").unwrap_err();
        assert!(err.message.contains("must be calls"));
    }

    #[test]
    fn rejects_complex_conditions() {
        assert!(parse("class C { void m(Object a) { if (a.f == null) { } } }").is_err());
    }

    #[test]
    fn reports_position_on_syntax_error() {
        let err = parse("class C { void m() { return }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected"));
    }
}
