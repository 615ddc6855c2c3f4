//! Host request types.

/// Direction of a host request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostOp {
    /// Read `n_pages` starting at `lpn`.
    Read,
    /// Write `n_pages` starting at `lpn`.
    Write,
    /// Discard (TRIM) `n_pages` starting at `lpn`: the pages become
    /// unmapped garbage the FTL can reclaim without migration.
    Trim,
}

/// One block-level host request, page-granular (the paper's platform uses
/// 16-KB pages; sub-page host I/O occupies a whole page).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HostRequest {
    /// Read or write.
    pub op: HostOp,
    /// First logical page number.
    pub lpn: u64,
    /// Number of consecutive pages (≥ 1).
    pub n_pages: u32,
}

impl HostRequest {
    /// A single-page read.
    pub fn read(lpn: u64) -> Self {
        HostRequest {
            op: HostOp::Read,
            lpn,
            n_pages: 1,
        }
    }

    /// A single-page write.
    pub fn write(lpn: u64) -> Self {
        HostRequest {
            op: HostOp::Write,
            lpn,
            n_pages: 1,
        }
    }

    /// A multi-page read.
    pub fn read_span(lpn: u64, n_pages: u32) -> Self {
        assert!(n_pages >= 1, "request must span at least one page");
        HostRequest {
            op: HostOp::Read,
            lpn,
            n_pages,
        }
    }

    /// A multi-page write.
    pub fn write_span(lpn: u64, n_pages: u32) -> Self {
        assert!(n_pages >= 1, "request must span at least one page");
        HostRequest {
            op: HostOp::Write,
            lpn,
            n_pages,
        }
    }

    /// A multi-page TRIM (discard).
    pub fn trim_span(lpn: u64, n_pages: u32) -> Self {
        assert!(n_pages >= 1, "request must span at least one page");
        HostRequest {
            op: HostOp::Trim,
            lpn,
            n_pages,
        }
    }

    /// Iterates over the logical pages the request touches.
    pub fn lpns(&self) -> impl Iterator<Item = u64> + '_ {
        (0..u64::from(self.n_pages)).map(move |i| self.lpn + i)
    }

    /// Whether the request is a write.
    pub fn is_write(&self) -> bool {
        self.op == HostOp::Write
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_lpns() {
        let r = HostRequest::read(10);
        assert_eq!(r.lpns().collect::<Vec<_>>(), vec![10]);
        assert!(!r.is_write());
        let w = HostRequest::write_span(5, 3);
        assert_eq!(w.lpns().collect::<Vec<_>>(), vec![5, 6, 7]);
        assert!(w.is_write());
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_span_rejected() {
        HostRequest::read_span(0, 0);
    }

    #[test]
    fn trim_spans_pages() {
        let t = HostRequest::trim_span(10, 4);
        assert_eq!(t.op, HostOp::Trim);
        assert_eq!(t.lpns().count(), 4);
        assert!(!t.is_write());
    }
}
