//! Small helpers for printing experiment tables and series.

/// Formats a float with three decimal places.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with one decimal place.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(0.8637), "86.4%");
    }
}
