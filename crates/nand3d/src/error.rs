//! Error types for NAND device operations.

use crate::geometry::{BlockId, PageAddr, WlAddr};
use std::error::Error;
use std::fmt;

/// Errors returned by [`NandChip`](crate::NandChip) command methods.
///
/// Every variant corresponds to a command-protocol violation: issuing an
/// operation on an address the device cannot legally service in its current
/// state (out-of-range addresses, programming a non-erased WL, reading an
/// unwritten page, and so on). Latency effects of *legal but degraded*
/// operations — over-programming, read retries — are not errors; they are
/// reported in [`ProgramReport`](crate::ProgramReport) and
/// [`ReadReport`](crate::ReadReport).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NandError {
    /// The block index exceeds the chip geometry.
    BlockOutOfRange(BlockId),
    /// The WL address exceeds the chip geometry.
    WlOutOfRange(WlAddr),
    /// The page address exceeds the chip geometry.
    PageOutOfRange(PageAddr),
    /// A WL was programmed without erasing its block first, or programmed
    /// twice since the last erase.
    ProgramOnDirtyWl(WlAddr),
    /// A read targeted a page that has not been programmed since the last
    /// erase of its block.
    ReadUnwritten(PageAddr),
    /// The chip index exceeds the array size.
    ChipOutOfRange(usize),
    /// A program carried a page tag the spare area cannot store: tags
    /// are 32-bit, so one must be below `u32::MAX` or be
    /// [`WlData::PAD`](crate::WlData::PAD).
    TagOutOfRange(u64),
    /// A program was issued with parameters outside the device's legal
    /// range (e.g. a `V_Start`/`V_Final` adjustment larger than the whole
    /// program window).
    IllegalParameters(String),
}

impl fmt::Display for NandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NandError::BlockOutOfRange(b) => write!(f, "block {} out of range", b.0),
            NandError::WlOutOfRange(wl) => write!(f, "word line {wl} out of range"),
            NandError::PageOutOfRange(p) => write!(f, "page {p} out of range"),
            NandError::ProgramOnDirtyWl(wl) => {
                write!(f, "program issued to non-erased word line {wl}")
            }
            NandError::ReadUnwritten(p) => write!(f, "read issued to unwritten page {p}"),
            NandError::ChipOutOfRange(c) => write!(f, "chip {c} out of range"),
            NandError::TagOutOfRange(t) => write!(f, "page tag {t} does not fit a 32-bit tag"),
            NandError::IllegalParameters(msg) => write!(f, "illegal operation parameters: {msg}"),
        }
    }
}

impl Error for NandError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{BlockId, Geometry};

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let g = Geometry::paper();
        let errs = vec![
            NandError::BlockOutOfRange(BlockId(9999)),
            NandError::WlOutOfRange(g.wl_addr(BlockId(0), 0, 0)),
            NandError::PageOutOfRange(g.page_addr(BlockId(0), 0, 0, 0)),
            NandError::ProgramOnDirtyWl(g.wl_addr(BlockId(1), 2, 3)),
            NandError::ReadUnwritten(g.page_addr(BlockId(1), 2, 3, 1)),
            NandError::ChipOutOfRange(17),
            NandError::TagOutOfRange(u64::from(u32::MAX)),
            NandError::IllegalParameters("window collapsed".to_owned()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase(), "{s}");
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NandError>();
    }
}
