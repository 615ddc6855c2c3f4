//! Helpers shared by the unit tests of the `Ftl` modules.
#![cfg(test)]

use nand3d::WlData;
use ssdsim::{FtlDriver, HostContext};

pub(crate) fn ctx(mu: f64) -> HostContext {
    HostContext {
        buffer_utilization: mu,
        now_us: 0.0,
    }
}

/// Writes `lpns` three to a WL (the tail padded), chips round-robin.
pub(crate) fn write_all<F: FtlDriver>(
    ftl: &mut F,
    lpns: impl Iterator<Item = u64>,
    chips: usize,
    mu: f64,
) {
    let mut batch = [WlData::PAD; 3];
    let mut n = 0;
    let mut chip = 0;
    for lpn in lpns {
        batch[n] = lpn;
        n += 1;
        if n == 3 {
            ftl.write_wl(chip, batch, &ctx(mu));
            chip = (chip + 1) % chips;
            batch = [WlData::PAD; 3];
            n = 0;
        }
    }
    if n > 0 {
        ftl.write_wl(chip, batch, &ctx(mu));
    }
}
