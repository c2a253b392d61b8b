//! Offline substitute for `serde_derive`.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the one derive macro the workspace uses, implemented directly on top of
//! `proc_macro` (no `syn`/`quote`). `#[derive(Serialize)]` generates an
//! implementation of the vendored `serde::Serialize` trait (which renders a
//! `serde::Value` tree). Container attributes (`#[serde(...)]`) are not
//! supported — the workspace does not use any.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    let body = match &item.data {
        Data::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| {
                    format!("(String::from(\"{f}\"), serde::Serialize::to_json_value(&self.{f}))")
                })
                .collect();
            format!("serde::Value::Object(vec![{}])", entries.join(", "))
        }
        Data::TupleStruct(arity) => match arity {
            0 => "serde::Value::Null".to_string(),
            1 => "serde::Serialize::to_json_value(&self.0)".to_string(),
            n => {
                let elems: Vec<String> = (0..*n)
                    .map(|i| format!("serde::Serialize::to_json_value(&self.{i})"))
                    .collect();
                format!("serde::Value::Array(vec![{}])", elems.join(", "))
            }
        },
        Data::UnitStruct => "serde::Value::Null".to_string(),
        Data::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let name = &item.name;
                    let vn = &v.name;
                    match &v.shape {
                        VariantShape::Unit => format!(
                            "{name}::{vn} => serde::Value::String(String::from(\"{vn}\")),"
                        ),
                        VariantShape::Tuple(1) => format!(
                            "{name}::{vn}(f0) => serde::Value::Object(vec![(String::from(\"{vn}\"), serde::Serialize::to_json_value(f0))]),"
                        ),
                        VariantShape::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let elems: Vec<String> = (0..*n)
                                .map(|i| format!("serde::Serialize::to_json_value(f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => serde::Value::Object(vec![(String::from(\"{vn}\"), serde::Value::Array(vec![{}]))]),",
                                binds.join(", "),
                                elems.join(", ")
                            )
                        }
                        VariantShape::Struct(fields) => {
                            let binds = fields.join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(String::from(\"{f}\"), serde::Serialize::to_json_value({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vn} {{ {binds} }} => serde::Value::Object(vec![(String::from(\"{vn}\"), serde::Value::Object(vec![{}]))]),",
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join("\n"))
        }
    };
    let out = format!(
        "impl serde::Serialize for {} {{\n    fn to_json_value(&self) -> serde::Value {{\n        {}\n    }}\n}}",
        item.name, body
    );
    out.parse().expect("generated Serialize impl must parse")
}

// ---------------------------------------------------------------------------
// A tiny parser over `proc_macro::TokenStream`, just enough for the shapes the
// workspace derives on: non-generic structs and enums without serde attributes.
// ---------------------------------------------------------------------------

enum Data {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    shape: VariantShape,
}

enum VariantShape {
    Unit,
    Tuple(usize),
    Struct(Vec<String>),
}

struct Item {
    name: String,
    data: Data,
}

fn parse_item(input: TokenStream) -> Item {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    skip_attrs_and_vis(&tokens, &mut i);
    let kind = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected `struct` or `enum`, found {other}"),
    };
    i += 1;
    let name = match &tokens[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("expected type name, found {other}"),
    };
    i += 1;
    if matches!(&tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde_derive (offline substitute): generic types are not supported");
    }
    let data = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::NamedStruct(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Data::TupleStruct(count_top_level_fields(g.stream()))
            }
            _ => Data::UnitStruct,
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Data::Enum(parse_variants(g.stream()))
            }
            other => panic!("expected enum body, found {other:?}"),
        },
        other => panic!("cannot derive for `{other}` items"),
    };
    Item { name, data }
}

/// Advances past any leading attributes (including doc comments) and a
/// visibility modifier.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` and the `[...]` group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // `pub(crate)` etc.
                }
            }
            _ => break,
        }
    }
}

/// Parses `name: Type, ...` returning the field names. Commas nested in
/// parenthesized groups or between `<`/`>` do not split fields.
fn parse_named_fields(stream: TokenStream) -> Vec<String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        fields.push(id.to_string());
        i += 1;
        // Skip `:` and the type, up to a top-level comma.
        let mut angle_depth = 0i32;
        while i < tokens.len() {
            match &tokens[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    fields
}

/// Counts the comma-separated fields of a tuple struct or tuple variant.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0i32;
    let mut saw_trailing_comma = false;
    for (idx, t) in tokens.iter().enumerate() {
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                if idx == tokens.len() - 1 {
                    saw_trailing_comma = true;
                } else {
                    count += 1;
                }
            }
            _ => {}
        }
    }
    let _ = saw_trailing_comma;
    count
}

fn parse_variants(stream: TokenStream) -> Vec<Variant> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            break;
        };
        let name = id.to_string();
        i += 1;
        let shape = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantShape::Tuple(count_top_level_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantShape::Struct(parse_named_fields(g.stream()))
            }
            _ => VariantShape::Unit,
        };
        // Skip discriminant (`= expr`) and the separating comma, if present.
        while i < tokens.len() {
            if let TokenTree::Punct(p) = &tokens[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push(Variant { name, shape });
    }
    variants
}
