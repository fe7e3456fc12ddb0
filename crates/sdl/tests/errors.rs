//! Exact SDL error messages and positions.
//!
//! Each case is a malformed schema and the `Display` text of the
//! `SdlError` that `compile` returns for it, byte for byte. The CLI prints
//! that text after `error: <file>: `, so a change here changes what a
//! schema author sees. The first lexical error in a file wins over any
//! syntax error, wherever the two occur.

use chc_sdl::compile;

const CASES: &[(&str, &str)] = &[
    // A syntax error followed by a later lexical error: the lexical error wins.
    ("class A with x 1..2\nclass B with y: ?", "2:17: lexical error: unexpected character `?`"),
    ("class A with x 1..2\nclass B ?", "2:9: lexical error: unexpected character `?`"),
    (
        "class A with x: 1..2 class B with y: 3..4;\nclass C with z: 'x . ",
        "2:20: lexical error: stray `.` (did you mean `..`?)",
    ),
    // `is` not followed by `a` stays an identifier.
    ("class A is b", "1:9: expected `class`, found identifier `is`"),
    ("class A is\n  ?", "2:3: lexical error: unexpected character `?`"),
    ("class A is-a B; class B is", "1:25: expected `class`, found identifier `is`"),
    // An empty `'`.
    ("class A with x: {' }", "1:18: lexical error: empty enumeration token after `'`"),
    ("class A with x: {'a, '}", "1:22: lexical error: empty enumeration token after `'`"),
    // `i64` overflow; a literal is read unsigned, so `i64::MIN` overflows too.
    ("class A with x: 1..99999999999999999999", "1:20: lexical error: integer literal overflows i64"),
    ("class A with x: -9223372036854775808..0", "1:17: lexical error: integer literal overflows i64"),
    // Stray characters; a multi-byte character is named by its first byte.
    ("class A with x: 1 . 2", "1:19: lexical error: stray `.` (did you mean `..`?)"),
    ("class A with x: é", "1:17: lexical error: unexpected character `Ã`"),
    ("class A with x: 1..2;\n\tclass B ?", "2:10: lexical error: unexpected character `?`"),
    ("class A ?", "1:9: lexical error: unexpected character `?`"),
    // Syntax errors.
    ("klass A", "1:1: expected `class`, found identifier `klass`"),
    (
        "class A with x: ",
        "1:17: expected a range (integer interval, enumeration, class, or record), found end of input",
    ),
    ("class A with x: {'a 'b}", "1:23: expected `,` or `}`, found `}`"),
    ("class A with x: 1..", "1:20: expected the range's upper bound, found end of input"),
    ("class A with x: 1..b", "1:21: expected the range's upper bound, found end of input"),
    (
        "class A with x: [y: 1..2",
        "1:25: expected `;` or the end of the attribute list, found end of input",
    ),
    (
        "class A with x: B [y: 1..2",
        "1:27: expected `;` or the end of the attribute list, found end of input",
    ),
    ("class A is-a", "1:13: expected a superclass name, found end of input"),
    ("class A is-a B,", "1:16: expected a superclass name, found end of input"),
    ("class A with x: 1..2 excuses x", "1:31: expected `on`, found end of input"),
    (
        "class A with x: 1..2 excuses x on",
        "1:34: expected the excused class's name, found end of input",
    ),
    ("class A with x: 1..2 excuses x at A", "1:32: expected `on`, found identifier `at`"),
    ("class A with : 1..2", "1:14: expected an attribute name, found `:`"),
    ("class", "1:6: expected a class name, found end of input"),
    (
        "class A with x: 1..2 y: 3..4",
        "1:22: expected `;` or the end of the attribute list, found identifier `y`",
    ),
    ("class A with x: {}", "1:19: expected an enumeration token like `'Dove`, found end of input"),
    (
        "class A with x: ;",
        "1:17: expected a range (integer interval, enumeration, class, or record), found `;`",
    ),
    // Unknown classes, in every place a class is named.
    ("class A with x: Nowhere", "1:14: reference to undefined class `Nowhere`"),
    ("class A is-a Nowhere", "1:14: reference to undefined class `Nowhere`"),
    ("class A with x: 1..2 excuses x on Nowhere", "1:22: reference to undefined class `Nowhere`"),
    ("class A with x: [y: Nowhere]", "1:18: reference to undefined class `Nowhere`"),
    ("class A with x: Nowhere [y: 1..2]", "1:14: reference to undefined class `Nowhere`"),
    (
        "class A with x: B [y: 1..2 excuses y on Nowhere]; class B with y: 3..4",
        "1:28: reference to undefined class `Nowhere`",
    ),
    // Duplicates: a duplicate class is reported at its second occurrence.
    ("class A; class A", "1:10: schema error: class `A` is declared more than once"),
    (
        "class A;\nclass B;\n  class A with x: 1..2",
        "3:3: schema error: class `A` is declared more than once",
    ),
    ("class A with x: {'a, 'b}; class A", "1:27: schema error: class `A` is declared more than once"),
    ("class A with x: 1..2; x: 3..4", "1:23: schema error: class `A` declares attribute `x` twice"),
    ("class B; class A is-a B, B", "1:26: schema error: class `A` lists superclass `B` twice"),
    (
        "class A with x: [y: 1..2; y: 3..4]",
        "1:14: schema error: record type declares field `y` twice",
    ),
    // Invalid integer ranges.
    ("class A with x: 10..5", "1:14: schema error: invalid integer range 10..5 (lo > hi)"),
    ("class A with x: [y: 10..5]", "1:18: schema error: invalid integer range 10..5 (lo > hi)"),
    // Is-a cycles.
    (
        "class A is-a B; class B is-a A",
        "1:1: schema error: the is-a hierarchy contains a cycle through `A`",
    ),
    (
        "class C; class A is-a B; class B is-a C, A",
        "1:10: schema error: the is-a hierarchy contains a cycle through `A`",
    ),
    ("class A is-a A", "1:1: schema error: the is-a hierarchy contains a cycle through `A`"),
    // Which error wins when a declaration has several: the range, then the
    // excuse clauses, then the declaration itself; a cycle only at the end.
    (
        "class A with x: [y: 10..5] excuses x on Nowhere",
        "1:18: schema error: invalid integer range 10..5 (lo > hi)",
    ),
    ("class A with x: Nowhere excuses x on Nowhere2", "1:14: reference to undefined class `Nowhere`"),
    (
        "class A with x: 1..2; x: 3..4 excuses x on Nowhere",
        "1:31: reference to undefined class `Nowhere`",
    ),
    ("class A with x: [y: 1..2; y: 3..4; z: Nowhere]", "1:36: reference to undefined class `Nowhere`"),
    ("class A is-a B; class B is-a A with x: Nowhere", "1:37: reference to undefined class `Nowhere`"),
    ("class A is-a Nowhere, B with x: 10..5", "1:14: reference to undefined class `Nowhere`"),
    // An excuse naming an attribute its class lacks.
    (
        "class A with x: 1..2 excuses y on A",
        "1:22: schema error: excuse refers to attribute `y` on `A`, but `A` neither declares nor inherits it",
    ),
    (
        "class B with y: 1..2; class A with x: 1..2 excuses x on B",
        "1:44: schema error: excuse refers to attribute `x` on `B`, but `B` neither declares nor inherits it",
    ),
    // The position is the first clause naming the same attribute and
    // class, searching nested records too: here an earlier nested clause.
    (
        "class C with w: 1..2;\nclass B with y: 1..2;\nclass X with a: B [y: 1..2 excuses zz on C];\nclass Y with q: 1..2 excuses zz on C",
        "3:28: schema error: excuse refers to attribute `zz` on `C`, but `C` neither declares nor inherits it",
    ),
    (
        "class C;\nclass X with a: [y: [z: 1..2 excuses zz on C]];\nclass Y with b: 1..2 excuses zz on C",
        "2:30: schema error: excuse refers to attribute `zz` on `C`, but `C` neither declares nor inherits it",
    ),
    // An attribute's own clauses are searched before its nested fields.
    (
        "class C;\nclass X with a: [y: 1..2 excuses zz on C] excuses zz on C",
        "2:43: schema error: excuse refers to attribute `zz` on `C`, but `C` neither declares nor inherits it",
    ),
];

#[test]
fn every_error_message_and_position_is_pinned() {
    let mut wrong = Vec::new();
    for &(src, want) in CASES {
        match compile(src) {
            Ok(_) => wrong.push(format!("{src:?}: compiled, want {want:?}")),
            Err(e) if e.to_string() != want => wrong.push(format!("{src:?}: {e}, want {want}")),
            Err(_) => {}
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn inputs_near_the_edges_still_compile() {
    for src in [
        "class A with x: 9223372036854775807..9223372036854775807",
        "class A with x: 1..2\n\n   class B is-a A with x: {'a, 'b, 'a}",
        // Nested clauses are not checked against their class at compile time.
        "class H with loc: [s: 1..2];\nclass P with at: H;\nclass Q is-a P with at: [s: [t: 1..2 excuses t on H]]",
    ] {
        assert!(compile(src).is_ok(), "{src:?}");
    }
}

#[test]
fn records_and_refinements_nest_at_most_max_record_depth() {
    use chc_sdl::parser::MAX_RECORD_DEPTH;
    let nested = |open: &str, depth: usize| {
        format!(
            "class A with x : {}1..2{}",
            open.repeat(depth),
            "]".repeat(depth)
        )
    };
    // `class A with x : ` is 17 bytes; the error points at the `[` one
    // level past the limit.
    let cases = [("[x : ", 1), ("A [x : ", 3)];
    // Unoptimized builds need more than a test thread's stack at the limit.
    let deep = std::thread::Builder::new().stack_size(64 << 20);
    deep.spawn(move || {
        for (open, at) in cases {
            assert!(compile(&nested(open, MAX_RECORD_DEPTH)).is_ok(), "{open}");
            let col = 17 + open.len() * MAX_RECORD_DEPTH + at;
            let want = format!(
                "1:{col}: expected records nested at most {MAX_RECORD_DEPTH} deep, found `[`"
            );
            for depth in [MAX_RECORD_DEPTH + 1, 20_000] {
                let got = compile(&nested(open, depth)).err().map(|e| e.to_string());
                assert_eq!(got.as_deref(), Some(want.as_str()), "{open} {depth}");
            }
        }
    })
    .unwrap()
    .join()
    .unwrap();
}
