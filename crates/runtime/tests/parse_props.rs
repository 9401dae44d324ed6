//! No-panic properties for the parsers that read untrusted text: the
//! manifest grammar (`manifest::parse_manifest`, which every `POST /jobs`
//! spec also goes through), FISA assembly (`cf_isa::parse_program`, what
//! a `program=` file becomes) and JSON (`serde_json::from_str`, every
//! request body). Each takes arbitrary bytes, arbitrary characters and a
//! soup of its own grammar's tokens, and must answer `Ok` or a typed
//! error — never panic.

use cf_runtime::manifest::parse_manifest;
use proptest::prelude::*;

/// Arbitrary bytes, lossily decoded (invalid UTF-8 becomes U+FFFD).
fn bytes_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..512)
        .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
}

/// Arbitrary Unicode scalar values, control characters and all.
fn chars_text() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..256)
        .prop_map(|codes| codes.into_iter().filter_map(|c| char::from_u32(c % 0x11_0000)).collect())
}

/// A random sequence of `tokens`, so inputs reach deep into a grammar
/// instead of failing on the first byte.
fn soup(tokens: &'static [&'static str]) -> impl Strategy<Value = String> {
    prop::collection::vec(0..tokens.len(), 0..48)
        .prop_map(move |picks| picks.into_iter().map(|i| tokens[i]).collect())
}

const MANIFEST_TOKENS: &[&str] = &[
    "workload=",
    "program=",
    "machine=",
    "mode=",
    "seed=",
    "batch=",
    "order=",
    "size=",
    "repeat=",
    "label=",
    "profile=",
    "trace_json=",
    "matmul",
    "vgg16",
    "knn",
    "f1",
    "tiny",
    "exec",
    "simulate",
    "small",
    "paper",
    "true",
    "maybe",
    "0",
    "1",
    "64",
    "18446744073709551616",
    "-1",
    "=",
    "==",
    " ",
    "\t",
    "\n",
    "\r\n",
    "#",
    "x",
    "é",
    "\u{0}",
    "assets/demo.cfasm",
];

const CFASM_TOKENS: &[&str] = &[
    ".tensor",
    " ",
    "\n",
    "x",
    "w",
    "[",
    "]",
    "64",
    "0",
    "18446744073709551615",
    "x96",
    "@",
    ":",
    "(",
    ")",
    ",",
    "->",
    "{",
    "}",
    "=",
    "kind",
    "relu",
    "pads",
    "1:2/3:4",
    "stride",
    "/",
    "MatMul",
    "Act1D",
    "HSum1D",
    "Cv2D",
    "Max2D",
    "Lrn",
    "Sort1D",
    "Count1D",
    "Merge1D",
    ";",
    "-",
    "1e40",
    "NaN",
    "%t0",
    "é",
];

const JSON_TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\"a\"",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "\\n",
    "0",
    "-",
    "1e999",
    "1.5",
    "01",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "nul",
    " ",
    "\n",
    "é",
    "\u{0}",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    /// A manifest never panics its parser, and every spec it accepts
    /// runs at least once.
    #[test]
    fn manifest_parsing_never_panics(
        bytes in bytes_text(),
        chars in chars_text(),
        tokens in soup(MANIFEST_TOKENS),
    ) {
        for text in [bytes, chars, tokens] {
            if let Ok(specs) = parse_manifest(&text) {
                prop_assert!(specs.iter().all(|spec| spec.repeat >= 1), "{text:?}");
            }
        }
    }

    /// FISA assembly never panics its parser.
    #[test]
    fn cfasm_parsing_never_panics(
        bytes in bytes_text(),
        chars in chars_text(),
        tokens in soup(CFASM_TOKENS),
    ) {
        for text in [bytes, chars, tokens] {
            let _ = cf_isa::parse_program(&text);
        }
    }

    /// JSON never panics its parser, and a value it accepts renders back
    /// to text that parses to the same value.
    #[test]
    fn json_parsing_never_panics_and_round_trips(
        bytes in bytes_text(),
        chars in chars_text(),
        tokens in soup(JSON_TOKENS),
    ) {
        for text in [bytes, chars, tokens] {
            if let Ok(value) = serde_json::from_str(&text) {
                let rendered = serde_json::to_string(&value);
                prop_assert_eq!(serde_json::from_str(&rendered).ok(), Some(value), "{}", text);
            }
        }
    }
}
