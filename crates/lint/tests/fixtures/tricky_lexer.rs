//! Fixture: panic-family *text* that must never be flagged, because it sits
//! in strings, comments, raw strings or `#[cfg(test)]` regions.
//!
//! A doc sentence mentioning .unwrap() is fine too.

pub fn strings_and_comments() -> String {
    // a comment saying x.unwrap() is not a finding
    /* nor a block comment with y.expect("...") or panic!("..")
       spanning /* nested */ comments */
    let s = "call .unwrap() and .expect(\"msg\") and panic!(\"boom\")";
    let r = r#"raw with "quotes" and .unwrap() and Instant::now()"#;
    let odd = r##"outer ##: "# still inside .expect("here") "##;
    format!("{s}{r}{odd}")
}

pub fn char_literals() -> (char, char, char) {
    ('"', '\\', '\'')
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v = vec![1.0_f64];
        assert_eq!(v.first().unwrap().partial_cmp(&1.0).unwrap(), std::cmp::Ordering::Equal);
        // Wall-clock reads in test regions are not this linter's business.
        let _ = std::time::Instant::now();
    }
}
