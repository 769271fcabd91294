//! Parity of the public direct writers with the [`Value`] printer: code
//! that writes JSON lines straight into a `String` with
//! [`mocha_json::write_num`]/[`mocha_json::write_str`] must produce the
//! same bytes as building a [`Value`] and calling `to_string_compact`.

use mocha_json::{write_num, write_str, ToJson, Value};

fn num(n: f64) -> String {
    let mut out = String::new();
    write_num(n, &mut out);
    out
}

fn string(s: &str) -> String {
    let mut out = String::new();
    write_str(s, &mut out);
    out
}

#[test]
fn write_num_matches_the_value_printer() {
    let two53 = (1u64 << 53) as f64;
    let cases = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        42.0,
        1e15,
        8.999_999_999_999_998e15,
        9e15,
        -9e15,
        two53,
        two53 + 2.0,
        u64::MAX as f64,
        (u64::MAX - 1) as f64,
        i64::MIN as f64,
        0.5,
        -0.25,
        1.0 / 3.0,
        2.0 / 3.0 * 1e6,
        1e-308,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        12_345.678_9,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for n in cases {
        assert_eq!(num(n), Value::Num(n).to_string_compact(), "{n:?}");
    }
    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(num(n), "null", "{n:?}");
    }
    // Every u64 a counter can hold goes through `as f64` on both paths.
    for v in [
        0u64,
        7,
        1 << 52,
        (1 << 53) - 1,
        1 << 53,
        (1 << 53) + 1,
        1 << 63,
    ] {
        assert_eq!(num(v as f64), v.to_json().to_string_compact(), "{v}");
    }
}

#[test]
fn write_str_matches_the_value_printer() {
    let every_control: String = (0u8..0x20).map(char::from).collect();
    let cases = [
        "",
        "plain",
        "tenant=3,template=lenet5",
        "quote \" and backslash \\",
        "newline\ntab\treturn\r",
        "slash / stays",
        every_control.as_str(),
        "\u{7f} del and \u{e9} and \u{1f600}",
    ];
    for s in cases {
        assert_eq!(
            string(s),
            Value::Str(s.to_string()).to_string_compact(),
            "{s:?}"
        );
        let back = mocha_json::parse(&string(s)).expect("escaped string reparses");
        assert_eq!(back.as_str(), Some(s));
    }
}
