//! The common error type for the ZERO-REFRESH workspace.

use std::fmt;

/// Errors produced by the ZERO-REFRESH crates.
///
/// Every fallible public function in the workspace returns this type (or a
/// crate-local wrapper around it), so callers can handle all failures through
/// one [`std::error::Error`] implementation.
///
/// # Examples
///
/// ```
/// use zr_types::Error;
///
/// let err = Error::invalid_config("row_bytes must be a power of two");
/// assert!(err.to_string().contains("power of two"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A configuration value is inconsistent or out of the supported range.
    InvalidConfig {
        /// Human-readable description of the inconsistency.
        reason: String,
    },
    /// An address does not fall within the simulated memory.
    AddressOutOfRange {
        /// The offending byte address.
        addr: u64,
        /// The simulated capacity in bytes.
        capacity: u64,
    },
    /// A buffer had the wrong length for the requested operation.
    BadLength {
        /// The length that was provided.
        got: usize,
        /// The length that was required.
        expected: usize,
    },
    /// A workload, trace or benchmark name was not recognized.
    UnknownName {
        /// The name that failed to resolve.
        name: String,
    },
}

impl Error {
    /// Convenience constructor for [`Error::InvalidConfig`].
    ///
    /// # Examples
    ///
    /// ```
    /// let err = zr_types::Error::invalid_config("zero banks");
    /// assert!(matches!(err, zr_types::Error::InvalidConfig { .. }));
    /// ```
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        Error::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Error::AddressOutOfRange { addr, capacity } => write!(
                f,
                "address {addr:#x} out of range for capacity {capacity} bytes"
            ),
            Error::BadLength { got, expected } => {
                write!(f, "buffer length {got} does not match expected {expected}")
            }
            Error::UnknownName { name } => write!(f, "unknown name: {name}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = Error::AddressOutOfRange {
            addr: 0x1000,
            capacity: 4096,
        };
        let s = e.to_string();
        assert!(s.contains("0x1000"));
        assert!(s.contains("4096"));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn invalid_config_constructor() {
        let e = Error::invalid_config("bad");
        assert_eq!(
            e,
            Error::InvalidConfig {
                reason: "bad".to_string()
            }
        );
    }

    #[test]
    fn unknown_name_display() {
        let e = Error::UnknownName {
            name: "nosuch".into(),
        };
        assert!(e.to_string().contains("nosuch"));
    }
}
