//! The §3.2 memory-access-ratio classifier.

/// The paper's CS/CI threshold: 1 % of thread instructions being memory
/// transactions.
pub const CS_CI_THRESHOLD: f64 = 0.01;

/// Classification outcome.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppClass {
    /// Cache Sufficient: ratio below 1 %.
    CS,
    /// Cache Insufficient: ratio at or above 1 %.
    CI,
}

/// Classify a memory-access ratio.
pub fn classify(ratio: f64) -> AppClass {
    if ratio < CS_CI_THRESHOLD {
        AppClass::CS
    } else {
        AppClass::CI
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_one_percent() {
        assert_eq!(classify(0.0099), AppClass::CS);
        assert_eq!(classify(0.01), AppClass::CI);
        assert_eq!(classify(0.14), AppClass::CI);
        assert_eq!(classify(0.0), AppClass::CS);
    }
}
