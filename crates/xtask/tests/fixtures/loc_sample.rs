//! A module doc line.

/// A documented function.
pub fn kept(x: u32) -> u32 {
    let braces = "}{ in a string do not end anything";
    x + braces.len() as u32
}

#[cfg(test)]
use std::collections::BTreeSet;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dropped() {
        assert_eq!(kept(0), 34);
    }
}

pub const ALSO_KEPT: u32 = 1;
