//! Renders expressions back to C source text.
//!
//! The OMPDart rewriter performs textual splicing on the original source, so
//! expression rendering — for the array-section bounds of generated
//! `map`/`update` clauses and for comparing an expert's sections with them —
//! is all the printing there is.

use crate::ast::*;

/// Render an expression as C source.
pub fn expr_to_c(expr: &Expr) -> String {
    match &expr.kind {
        ExprKind::IntLit(v) => v.to_string(),
        ExprKind::FloatLit(v) => {
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("nan") {
                s
            } else {
                format!("{s}.0")
            }
        }
        ExprKind::CharLit(c) => format!("'{}'", escape_char(*c)),
        ExprKind::StrLit(s) => format!("\"{}\"", escape_str(s)),
        ExprKind::Ident(name) => name.to_string(),
        ExprKind::Unary {
            op,
            operand,
            postfix,
        } => {
            if *postfix {
                format!("{}{}", expr_to_c(operand), op.symbol())
            } else {
                format!("{}{}", op.symbol(), expr_to_c(operand))
            }
        }
        ExprKind::Binary { op, lhs, rhs } => {
            format!("{} {} {}", expr_to_c(lhs), op.symbol(), expr_to_c(rhs))
        }
        ExprKind::Assign { op, lhs, rhs } => {
            format!("{} {} {}", expr_to_c(lhs), op.symbol(), expr_to_c(rhs))
        }
        ExprKind::Conditional {
            cond,
            then_expr,
            else_expr,
        } => format!(
            "{} ? {} : {}",
            expr_to_c(cond),
            expr_to_c(then_expr),
            expr_to_c(else_expr)
        ),
        ExprKind::Call { callee, args, .. } => {
            let rendered: Vec<String> = args.iter().map(expr_to_c).collect();
            format!("{}({})", callee, rendered.join(", "))
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", expr_to_c(base), expr_to_c(index))
        }
        ExprKind::Member { base, field, arrow } => {
            format!(
                "{}{}{}",
                expr_to_c(base),
                if *arrow { "->" } else { "." },
                field
            )
        }
        ExprKind::Cast { ty, expr } => format!("({}){}", ty.to_c_string(), expr_to_c(expr)),
        ExprKind::SizeofType(ty) => format!("sizeof({})", ty.to_c_string()),
        ExprKind::SizeofExpr(e) => format!("sizeof({})", expr_to_c(e)),
        ExprKind::Comma(items) => items.iter().map(expr_to_c).collect::<Vec<_>>().join(", "),
        ExprKind::Paren(inner) => format!("({})", expr_to_c(inner)),
    }
}

fn escape_char(c: char) -> String {
    match c {
        '\n' => "\\n".into(),
        '\t' => "\\t".into(),
        '\r' => "\\r".into(),
        '\0' => "\\0".into(),
        '\'' => "\\'".into(),
        '\\' => "\\\\".into(),
        other => other.to_string(),
    }
}

fn escape_str(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            '\n' => "\\n".to_string(),
            '\t' => "\\t".to_string(),
            '"' => "\\\"".to_string(),
            '\\' => "\\\\".to_string(),
            other => other.to_string(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_str;

    #[test]
    fn expression_round_trip() {
        let src = "int f(int a, int b) { return a * (b + 3) - a / 2; }\n";
        let (_file, result) = parse_str("t.c", src);
        assert!(result.is_ok());
        let f = result.unit.function("f").unwrap();
        let mut rendered = None;
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Return(Some(e)) = &s.kind {
                rendered = Some(expr_to_c(e));
            }
        });
        assert_eq!(rendered.unwrap(), "a * (b + 3) - a / 2");
    }

    #[test]
    fn float_literals_keep_decimal_point() {
        let src = "double f() { return 2.0 + 1.5; }\n";
        let (_file, result) = parse_str("t.c", src);
        let f = result.unit.function("f").unwrap();
        let mut rendered = None;
        f.body.as_ref().unwrap().walk(&mut |s| {
            if let StmtKind::Return(Some(e)) = &s.kind {
                rendered = Some(expr_to_c(e));
            }
        });
        assert_eq!(rendered.unwrap(), "2.0 + 1.5");
    }
}
