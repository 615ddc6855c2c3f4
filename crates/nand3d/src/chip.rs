//! The NAND chip command interface and multi-chip array.
//!
//! [`NandChip`] exposes the three NAND commands — erase, program (one WL
//! at a time, carrying its three TLC pages), and read (one page at a
//! time) — with full state tracking (a WL must be erased before it is
//! programmed; only programmed pages can be read). Each command returns a
//! report carrying its latency and, for programs, the run-time monitored
//! values (`[L_min, L_max]` per state, `BER_EP1`, post-program BER) that
//! PS-aware FTLs consume through the Set/Get-Features-style interface
//! (paper §4.1.4, §5.1).
//!
//! [`FlashArray`] groups several chips into the package the SSD simulator
//! drives.

use crate::config::{NandConfig, NandTiming};
use crate::environment::{AgingState, Environment};
use crate::error::NandError;
use crate::faults::{FaultCounters, FaultInjector, FaultPlan, ProgramFault, ReadFaultKind};
use crate::geometry::{BlockId, Geometry, PageAddr, WlAddr};
use crate::ispp::{IsppEngine, LoopInterval, ProgramParams, NUM_PROGRAM_STATES};
use crate::process::ProcessModel;
use crate::read::{shift_prefix, ReadParams, RetryEngine};
use crate::reliability::ReliabilityModel;

/// Program state of one WL slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageState {
    /// Erased and programmable.
    Free,
    /// Programmed with live data.
    Written,
    /// Torn by a sudden power-off: the ISPP sequence (or the enclosing
    /// block erase) was interrupted, leaving the cells partially
    /// programmed with elevated BER. The WL is neither readable nor
    /// programmable until its block is erased again.
    Partial,
}

/// Program-status tag carried in a WL's OOB spare area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OobStatus {
    /// The program command ran to completion; the LPN tags are valid.
    Complete,
    /// The program was interrupted by a power cut; the data is suspect
    /// and recovery must quarantine the WL (§4.1.4 safety-check path).
    Torn,
}

/// Out-of-band (spare-area) metadata of one WL: the logical page
/// numbers its program carried, a monotonically increasing FTL sequence
/// number, and a program-status tag. Boot-time recovery rebuilds the L2P
/// map from these records alone. [`NandChip::wl_oob`] reads it out of
/// the WL's spare record, which stores the tags once for both this view
/// and [`NandChip::page_tag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WlOob {
    /// Logical tags of the three pages ([`WlData::PAD`] = padding).
    pub lpns: [u64; 3],
    /// FTL-assigned sequence number of the program operation.
    pub seq: u64,
    /// Program-status tag.
    pub status: OobStatus,
}

/// The payload tag a WL program carries. The simulator does not move real
/// bytes; a [`WlData`] records what the three pages of the WL contain so
/// FTL bookkeeping can be validated. The chip keeps each tag in 32 bits:
/// a tag is an LPN below `u32::MAX` or [`WlData::PAD`], which is stored
/// as `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WlData {
    /// Logical tags of the three pages (e.g. logical page numbers), or
    /// [`WlData::PAD`] for padding.
    pub pages: [u64; 3],
}

impl WlData {
    /// Tag used for padding/dummy pages.
    pub const PAD: u64 = u64::MAX;

    /// `tag` as the spare record stores it, or `None` if it does not
    /// fit in 32 bits.
    fn narrow(tag: u64) -> Option<u32> {
        if tag == Self::PAD {
            return Some(u32::MAX);
        }
        u32::try_from(tag).ok().filter(|&t| t != u32::MAX)
    }

    /// The tag a stored `u32` stands for.
    fn widen(tag: u32) -> u64 {
        if tag == u32::MAX {
            Self::PAD
        } else {
            u64::from(tag)
        }
    }

    /// A WL filled with three consecutive tags starting at `first`.
    pub fn host(first: u64) -> Self {
        WlData {
            pages: [first, first + 1, first + 2],
        }
    }

    /// A WL with explicit page tags.
    pub fn from_pages(pages: [u64; 3]) -> Self {
        WlData { pages }
    }
}

/// Report of one WL program command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramReport {
    /// Total command latency in µs.
    pub latency_us: f64,
    /// Monitored per-state loop intervals (Get-Features output the OPM
    /// records from leader-WL programs).
    pub loop_intervals: [LoopInterval; NUM_PROGRAM_STATES],
    /// Monitored `BER_EP1`.
    pub ber_ep1: f64,
    /// Post-program raw BER of the WL (§4.1.4 safety check input).
    pub post_ber: f64,
    /// Number of program pulses executed.
    pub pulses: u32,
    /// Number of verify steps executed.
    pub verifies: u32,
    /// Window shrink beyond the safe `MaxLoop` margin, in loops
    /// (under-margin exposure; 0 for safe parameters).
    pub margin_excess_loops: u32,
    /// Whether the program ran under a sudden ambient disturbance.
    pub disturbed: bool,
    /// Effective P/E cycles of the block at program time (Get-Features
    /// style metadata; FTLs track this anyway and the S_M conversion
    /// table of §4.1.2 is indexed by it).
    pub pe_cycles: u32,
    /// Whether the program was suspended/aborted (injected fault): the
    /// WL is still erased and carries no data; the FTL must re-issue the
    /// payload on another WL.
    pub aborted: bool,
}

/// Report of one page read command: what the sense cost and which
/// reference offset decoded the page. The page's stored tag is not a
/// sense result and is not in it — see [`NandChip::page_tag`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadReport {
    /// Total command latency in µs.
    pub latency_us: f64,
    /// Number of read retries performed.
    pub retries: u32,
    /// Offset index that decoded the page (ORT update value).
    pub final_offset: u8,
    /// The injected read fault this command recovered from, if any.
    /// Recovery costs retries/latency but never corrupts the page's data.
    pub fault: Option<ReadFaultKind>,
    /// Whether a hopeless retry chain was cut short (seeded walk
    /// abandoned for the default schedule, or a shortened full scan —
    /// see [`RetryOutcome::early_terminated`](crate::read::RetryOutcome)).
    pub early_terminated: bool,
}

/// What the read and program models derive from a block's effective
/// `(P/E, retention)` pair alone. The pair is the row's key: a row is
/// compared against the environment on every use and re-derived when
/// either half moved, so no event that ages, wears, refreshes or reheats
/// a block has to remember to invalidate anything.
#[derive(Debug, Clone, Copy)]
struct BlockTerms {
    pe: u32,
    months_bits: u64,
    /// [`shift_prefix`] of the pair.
    shift_prefix: f64,
    /// [`RetryEngine::retry_need_probability`] of the block.
    need_probability: f64,
    /// [`RetryEngine::predicted_offset`] of the block.
    predicted: u8,
    /// [`ReliabilityModel::retention_term`] of the block.
    retention_term: f64,
}

/// What a WL's spare area holds: the three page tags its program
/// carried (narrowed by [`WlData::narrow`]) and its OOB record's sequence
/// number and status (`None` until [`NandChip::write_oob`] stamps it).
/// 24 bytes; an erased WL holds [`WlSpare::ERASED`].
#[derive(Debug, Clone, Copy)]
struct WlSpare {
    seq: u64,
    tags: [u32; 3],
    status: Option<OobStatus>,
}

impl WlSpare {
    const ERASED: WlSpare = WlSpare {
        seq: 0,
        tags: [u32::MAX; 3],
        status: None,
    };
}

/// Marks an h-layer whose optimum has not been derived since its
/// block's [`BlockTerms`] last moved (real optima are `0..=7`).
const UNKNOWN_OPTIMUM: u8 = u8::MAX;

/// One 3D TLC NAND chip.
///
/// # Example
///
/// ```
/// use nand3d::{NandChip, NandConfig, ProgramParams, ReadParams, WlData};
///
/// # fn main() -> Result<(), nand3d::NandError> {
/// let mut chip = NandChip::new(NandConfig::small(), 1);
/// let block = nand3d::BlockId(2);
/// chip.erase(block)?;
/// let wl = chip.geometry().wl_addr(block, 0, 0);
/// chip.program_wl(wl, WlData::host(100), &ProgramParams::default())?;
/// let page = chip.geometry().page_addr(block, 0, 0, 1);
/// let read = chip.read_page(page, ReadParams::default())?;
/// assert!(read.latency_us > 0.0);
/// assert_eq!(chip.page_tag(page), Some(101));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NandChip {
    config: NandConfig,
    process: ProcessModel,
    ispp: IsppEngine,
    retry: RetryEngine,
    env: Environment,
    /// Per-block memo of the aging-dependent model terms.
    block_terms: Vec<BlockTerms>,
    /// `layer_optimum[block * hlayers + h]`: the ground-truth optimal
    /// offset under the block's current terms, or [`UNKNOWN_OPTIMUM`].
    layer_optimum: Vec<u8>,
    /// Installed fault injector, if a plan is active.
    faults: Option<FaultInjector>,
    /// Per-WL program state: the one per-WL array a read loads.
    wl_state: Vec<PageState>,
    /// Per-WL spare area: data tags and OOB record.
    spare: Vec<WlSpare>,
    /// Highest OOB sequence number deposited into each block since its
    /// last erase (conceptually the block's summary/metadata page).
    block_prog_seq: Vec<u64>,
    /// FTL sequence number stamped on each block's last tagged erase.
    block_erase_seq: Vec<u64>,
    /// Blocks whose erase pulse was cut short by a power loss: unusable
    /// until re-erased.
    erase_interrupted: Vec<bool>,
    erases: u64,
    programs: u64,
    reads: u64,
}

impl NandChip {
    /// Creates a chip with deterministic process variation derived from
    /// `seed`.
    pub fn new(config: NandConfig, seed: u64) -> Self {
        let process = ProcessModel::new(config.geometry, seed);
        let wls = (config.geometry.blocks_per_chip * config.geometry.wls_per_block()) as usize;
        let blocks = config.geometry.blocks_per_chip as usize;
        let hlayers = usize::from(config.geometry.hlayers_per_block);
        let mut chip = NandChip {
            process,
            ispp: IsppEngine::new(),
            retry: RetryEngine::new(),
            env: Environment::new(blocks, seed ^ 0xABCD),
            block_terms: Vec::new(),
            layer_optimum: vec![UNKNOWN_OPTIMUM; blocks * hlayers],
            faults: None,
            wl_state: vec![PageState::Free; wls],
            spare: vec![WlSpare::ERASED; wls],
            block_prog_seq: vec![0; blocks],
            block_erase_seq: vec![0; blocks],
            erase_interrupted: vec![false; blocks],
            erases: 0,
            programs: 0,
            reads: 0,
            config,
        };
        // Every block starts in the same state: one derivation serves all.
        chip.block_terms = vec![chip.derive_terms(0); blocks];
        chip
    }

    /// The chip geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.config.geometry
    }

    /// The chip configuration.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// The process-variation model of this chip.
    pub fn process(&self) -> &ProcessModel {
        &self.process
    }

    /// The ISPP engine (exposed for characterization experiments).
    pub fn ispp(&self) -> &IsppEngine {
        &self.ispp
    }

    /// Sets the retry-chain optimization switches (Park-et-al-style
    /// speculation, prediction and early termination).
    pub fn set_retry_opt(&mut self, opt: crate::read::RetryOptConfig) {
        self.retry.set_opt(opt);
    }

    /// The reliability model (exposed for characterization experiments).
    pub fn reliability(&self) -> &ReliabilityModel {
        &ReliabilityModel
    }

    /// Mutable access to the operating environment (aging overrides,
    /// disturbance probability).
    pub fn env_mut(&mut self) -> &mut Environment {
        &mut self.env
    }

    /// The operating environment.
    pub fn env(&self) -> &Environment {
        &self.env
    }

    /// Pins the chip to one of the paper's aging states (§6.2).
    pub fn set_aging(&mut self, state: AgingState) {
        self.env.set_aging(state);
    }

    /// Installs a fault-injection plan, instantiated for `chip_index`
    /// (so each chip of an array draws a distinct fault stream). An
    /// inactive plan removes any installed injector.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, chip_index: u64) {
        self.faults = plan
            .is_active()
            .then(|| FaultInjector::new(plan.clone(), chip_index));
    }

    /// Counts of faults injected into this chip so far (zero counters if
    /// no plan is installed).
    pub fn fault_counters(&self) -> FaultCounters {
        self.faults
            .as_ref()
            .map(FaultInjector::counters)
            .unwrap_or_default()
    }

    /// Lifetime command counts `(erases, programs, reads)`.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.erases, self.programs, self.reads)
    }

    /// `block`'s model terms under the environment as it stands.
    fn derive_terms(&self, block: usize) -> BlockTerms {
        let pe = self.env.pe(block);
        let months = self.env.effective_retention_months_of(block);
        let shift_prefix = shift_prefix(pe, months);
        BlockTerms {
            pe,
            months_bits: months.to_bits(),
            shift_prefix,
            need_probability: self.retry.retry_need_probability(&self.env, block),
            predicted: self.retry.predicted_from(shift_prefix),
            retention_term: ReliabilityModel.retention_term(months),
        }
    }

    /// `block`'s model terms, re-derived first if its wear or retention
    /// age moved since they were last used (which also forgets the
    /// block's h-layer optima).
    fn block_terms(&mut self, block: usize) -> BlockTerms {
        let pe = self.env.pe(block);
        let months_bits = self.env.effective_retention_months_of(block).to_bits();
        let terms = self.block_terms[block];
        if (terms.pe, terms.months_bits) == (pe, months_bits) {
            return terms;
        }
        let hlayers = usize::from(self.config.geometry.hlayers_per_block);
        self.layer_optimum[block * hlayers..][..hlayers].fill(UNKNOWN_OPTIMUM);
        self.block_terms[block] = self.derive_terms(block);
        self.block_terms[block]
    }

    /// `wl`'s block terms and the ground-truth optimal offset of its
    /// h-layer ([`RetryEngine::optimal_offset`]), derived at most once
    /// per h-layer while the block's terms stand.
    fn read_terms(&mut self, wl: WlAddr) -> (BlockTerms, u8) {
        let block = wl.block.0 as usize;
        let terms = self.block_terms(block);
        let hlayers = usize::from(self.config.geometry.hlayers_per_block);
        let optimum = &mut self.layer_optimum[block * hlayers + usize::from(wl.h.0)];
        if *optimum == UNKNOWN_OPTIMUM {
            *optimum = self
                .retry
                .layer_offset(terms.shift_prefix, &self.process, wl);
        }
        (terms, *optimum)
    }

    fn check_wl(&self, wl: WlAddr) -> Result<usize, NandError> {
        if !self.config.geometry.contains_wl(wl) {
            return Err(NandError::WlOutOfRange(wl));
        }
        Ok(self.config.geometry.wl_flat(wl))
    }

    /// Erases `block`, freeing all of its WLs and advancing its P/E
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BlockOutOfRange`] for an invalid block.
    pub fn erase(&mut self, block: BlockId) -> Result<f64, NandError> {
        if !self.config.geometry.contains_block(block) {
            return Err(NandError::BlockOutOfRange(block));
        }
        let g = &self.config.geometry;
        let first = g.wl_flat(g.wl_addr(block, 0, 0));
        let count = g.wls_per_block() as usize;
        self.wl_state[first..first + count].fill(PageState::Free);
        self.spare[first..first + count].fill(WlSpare::ERASED);
        let b = block.0 as usize;
        self.block_prog_seq[b] = 0;
        self.erase_interrupted[b] = false;
        self.env.record_erase(b);
        self.erases += 1;
        Ok(NandTiming::PAPER.t_erase_us)
    }

    /// Erases `block` and stamps the FTL sequence number `seq` on its
    /// conceptual metadata page, so boot-time recovery can tell whether
    /// the block was erased after the last checkpoint (and must therefore
    /// drop the checkpoint's L2P entries pointing into it).
    ///
    /// # Errors
    ///
    /// Returns [`NandError::BlockOutOfRange`] for an invalid block.
    pub fn erase_tagged(&mut self, block: BlockId, seq: u64) -> Result<f64, NandError> {
        let t = self.erase(block)?;
        self.block_erase_seq[block.0 as usize] = seq;
        Ok(t)
    }

    /// Programs one WL (all three TLC pages at once) with `params`.
    ///
    /// Leader WLs are normally programmed with `ProgramParams::default()`
    /// so their monitored values are valid references for the followers
    /// (§5.1, footnote 4).
    ///
    /// # Errors
    ///
    /// * [`NandError::WlOutOfRange`] for an invalid address.
    /// * [`NandError::ProgramOnDirtyWl`] if the WL was already programmed
    ///   since the last erase of its block.
    /// * [`NandError::TagOutOfRange`] if a tag is neither below
    ///   `u32::MAX` nor [`WlData::PAD`] (checked before anything is
    ///   drawn).
    /// * [`NandError::IllegalParameters`] if `params` exceeds device
    ///   limits.
    pub fn program_wl(
        &mut self,
        wl: WlAddr,
        data: WlData,
        params: &ProgramParams,
    ) -> Result<ProgramReport, NandError> {
        let idx = self.check_wl(wl)?;
        if self.wl_state[idx] != PageState::Free {
            return Err(NandError::ProgramOnDirtyWl(wl));
        }
        let mut tags = [0; 3];
        for (stored, &tag) in tags.iter_mut().zip(&data.pages) {
            *stored = WlData::narrow(tag).ok_or(NandError::TagOutOfRange(tag))?;
        }

        let fault = self.faults.as_mut().and_then(|f| f.on_program(wl));
        let disturbed = self.env.sample_disturbance();
        let mut shift: i8 = if disturbed { 2 } else { 0 };
        if let Some(ProgramFault::LoopOutlier(extra)) = fault {
            shift = shift.saturating_add(extra);
        }
        let terms = self.block_terms(wl.block.0 as usize);
        let chars =
            self.ispp
                .characterize_at(&self.process, wl, terms.pe, terms.retention_term, shift);
        let mut outcome = self.ispp.program(&chars, params)?;
        if let Some(ProgramFault::BerSpike(factor)) = fault {
            outcome.apply_ber_spike(factor);
        }
        self.programs += 1;

        if matches!(fault, Some(ProgramFault::Abort)) {
            // Suspend/abort mid-ISPP: the WL stays erased, the command
            // still burned part of its pulse budget before aborting.
            return Ok(ProgramReport {
                latency_us: outcome.latency_us * 0.5,
                loop_intervals: outcome.observed_intervals,
                ber_ep1: outcome.ber_ep1,
                post_ber: outcome.post_ber,
                pulses: outcome.pulses / 2,
                verifies: outcome.verifies / 2,
                margin_excess_loops: outcome.margin_excess_loops,
                disturbed,
                pe_cycles: terms.pe,
                aborted: true,
            });
        }

        self.wl_state[idx] = PageState::Written;
        self.spare[idx].tags = tags;

        Ok(ProgramReport {
            latency_us: outcome.latency_us,
            loop_intervals: outcome.observed_intervals,
            ber_ep1: outcome.ber_ep1,
            post_ber: outcome.post_ber,
            pulses: outcome.pulses,
            verifies: outcome.verifies,
            margin_excess_loops: outcome.margin_excess_loops,
            disturbed,
            pe_cycles: terms.pe,
            aborted: false,
        })
    }

    /// Reads one page.
    ///
    /// # Errors
    ///
    /// * [`NandError::PageOutOfRange`] for an invalid address.
    /// * [`NandError::ReadUnwritten`] if the page's WL has not been
    ///   programmed since the last erase.
    pub fn read_page(
        &mut self,
        page: PageAddr,
        params: ReadParams,
    ) -> Result<ReadReport, NandError> {
        if !self.config.geometry.contains_page(page) {
            return Err(NandError::PageOutOfRange(page));
        }
        let idx = self.config.geometry.wl_flat(page.wl);
        if self.wl_state[idx] != PageState::Written {
            return Err(NandError::ReadUnwritten(page));
        }

        let block = page.wl.block.0 as usize;
        let mut fault = self.faults.as_mut().and_then(|f| f.on_read(page.wl));
        if matches!(fault, Some(ReadFaultKind::Uncorrectable)) && self.env.block_is_refreshed(block)
        {
            // Retention-driven charge loss is what pushes a page past the
            // ECC limit; data rewritten since the retention clock was
            // refreshed is still comfortably correctable.
            fault = None;
        }
        let (terms, optimum) = self.read_terms(page.wl);
        let needs_retry =
            RetryEngine::draw_needs_retry(optimum, terms.need_probability, &mut self.env);
        let disturbed = self.env.sample_disturbance();
        let jitter = self.retry.sample_thermal_jitter(&mut self.env, block);
        let outcome = self.retry.read_faulted_at(
            optimum,
            terms.predicted,
            params,
            needs_retry,
            disturbed,
            jitter,
            fault,
        );
        self.reads += 1;

        Ok(ReadReport {
            latency_us: outcome.latency_us,
            retries: outcome.retries,
            final_offset: outcome.final_offset,
            fault,
            early_terminated: outcome.early_terminated,
        })
    }

    /// The logical tag `page`'s WL was programmed with, or `None` while
    /// the WL is unwritten. The simulator moves no real bytes, so this
    /// is what the page "contains"; it is bookkeeping for checks (an FTL
    /// asserting that its mapping points where the data is), not a sense
    /// result, and [`NandChip::read_page`] does not load it. It is read
    /// out of the WL's spare record, the same tags [`NandChip::wl_oob`]
    /// reports.
    pub fn page_tag(&self, page: PageAddr) -> Option<u64> {
        let idx = self.config.geometry.wl_flat(page.wl);
        (self.wl_state[idx] == PageState::Written)
            .then(|| WlData::widen(self.spare[idx].tags[page.page.0 as usize]))
    }

    /// Completes a written WL's OOB record: stamps the FTL sequence
    /// number `seq` and [`OobStatus::Complete`] next to the page tags
    /// its program stored (the FTL calls this immediately after every
    /// successful program). Also advances the block's running
    /// max-program-sequence tracker.
    ///
    /// # Errors
    ///
    /// * [`NandError::WlOutOfRange`] for an invalid address.
    /// * [`NandError::ReadUnwritten`] if the WL holds no data (OOB rides
    ///   the data pages; there is nothing to attach it to).
    pub fn write_oob(&mut self, wl: WlAddr, seq: u64) -> Result<(), NandError> {
        let idx = self.check_wl(wl)?;
        if self.wl_state[idx] != PageState::Written {
            return Err(NandError::ReadUnwritten(PageAddr {
                wl,
                page: crate::geometry::PageIndex(0),
            }));
        }
        let spare = &mut self.spare[idx];
        spare.seq = seq;
        spare.status = Some(OobStatus::Complete);
        let b = wl.block.0 as usize;
        self.block_prog_seq[b] = self.block_prog_seq[b].max(seq);
        Ok(())
    }

    /// Reads back a WL's OOB spare-area metadata, if any was deposited
    /// since the last erase. Torn WLs keep their (status-tagged) OOB.
    pub fn wl_oob(&self, wl: WlAddr) -> Option<WlOob> {
        let spare = &self.spare[self.config.geometry.wl_flat(wl)];
        spare.status.map(|status| WlOob {
            lpns: spare.tags.map(WlData::widen),
            seq: spare.seq,
            status,
        })
    }

    /// Highest OOB sequence number programmed into `block` since its
    /// last erase (0 if none) — the single metadata-page probe recovery
    /// uses to decide whether a block needs a full OOB scan.
    pub fn block_prog_seq(&self, block: BlockId) -> u64 {
        self.block_prog_seq[block.0 as usize]
    }

    /// FTL sequence number stamped on `block`'s last tagged erase (0 if
    /// never erase-tagged).
    pub fn block_erase_seq(&self, block: BlockId) -> u64 {
        self.block_erase_seq[block.0 as usize]
    }

    /// Whether `block`'s last erase pulse was interrupted by a power cut
    /// (the block must be re-erased before use).
    pub fn block_erase_interrupted(&self, block: BlockId) -> bool {
        self.erase_interrupted[block.0 as usize]
    }

    /// Models a sudden power-off cutting an in-flight ISPP sequence on
    /// `wl`: a written WL degrades to [`PageState::Partial`] (cells left
    /// mid-distribution: neither readable nor programmable until erase),
    /// and its OOB record (if any) is re-tagged [`OobStatus::Torn`].
    /// Returns `true` if the WL was written and is now torn; free WLs are
    /// untouched (nothing was in flight).
    pub fn interrupt_program(&mut self, wl: WlAddr) -> bool {
        let Ok(idx) = self.check_wl(wl) else {
            return false;
        };
        if self.wl_state[idx] != PageState::Written {
            return false;
        }
        self.wl_state[idx] = PageState::Partial;
        if let Some(status) = &mut self.spare[idx].status {
            *status = OobStatus::Torn;
        }
        true
    }

    /// Models a sudden power-off cutting an in-flight erase pulse on
    /// `block`: every WL is left in the partial state and the block is
    /// flagged unusable until re-erased. Only applies when the block is
    /// fully free (i.e. the erase had begun); returns whether it did.
    pub fn interrupt_erase(&mut self, block: BlockId) -> bool {
        if !self.config.geometry.contains_block(block) {
            return false;
        }
        let g = &self.config.geometry;
        let first = g.wl_flat(g.wl_addr(block, 0, 0));
        let count = g.wls_per_block() as usize;
        if self.wl_state[first..first + count]
            .iter()
            .any(|s| *s != PageState::Free)
        {
            return false;
        }
        for i in first..first + count {
            self.wl_state[i] = PageState::Partial;
        }
        self.erase_interrupted[block.0 as usize] = true;
        true
    }

    /// Program state of a WL.
    pub fn wl_state(&self, wl: WlAddr) -> PageState {
        self.wl_state[self.config.geometry.wl_flat(wl)]
    }

    /// Get-Features: the *current* raw BER a read of `wl` would see under
    /// the chip's present wear and retention age — what a background
    /// scrubber samples via a leader-WL read to decide whether the block
    /// needs refreshing. Pure query: no state change, no RNG draw.
    /// Returns `None` for unwritten WLs.
    pub fn wl_current_ber(&self, wl: WlAddr) -> Option<f64> {
        let idx = self.config.geometry.wl_flat(wl);
        (self.wl_state[idx] == PageState::Written).then(|| {
            let block = wl.block.0 as usize;
            ReliabilityModel.ber(
                &self.process,
                wl,
                self.env.pe(block),
                self.env.effective_retention_months_of(block),
            )
        })
    }

    /// Retention age of `block`'s data in months (per-block when tracking
    /// is enabled, otherwise the global override).
    pub fn block_retention_months(&self, block: BlockId) -> f64 {
        self.env.retention_months_of(block.0 as usize)
    }

    /// Enables (or disables) per-block retention tracking. Blocks that
    /// hold no written WL at enable time are marked refreshed: they carry
    /// no pre-enable data, so whatever is written into them afterwards is
    /// young — only data present when tracking starts inherits the global
    /// retention age.
    pub fn set_block_retention_tracking(&mut self, on: bool) {
        self.env.set_block_retention_tracking(on);
        if !on {
            return;
        }
        let g = self.config.geometry;
        for b in 0..g.blocks_per_chip {
            let block = BlockId(b);
            let any_written = (0..g.hlayers_per_block).any(|h| {
                (0..g.wls_per_hlayer)
                    .any(|v| self.wl_state(g.wl_addr(block, h, v)) == PageState::Written)
            });
            if !any_written {
                self.env.mark_refreshed(b as usize);
            }
        }
    }
}

/// A package of NAND chips addressed by [`ChipId`](crate::ChipId) index.
///
/// The SSD simulator and FTLs use this as the physical storage substrate:
/// 8 chips of the paper geometry form the 32-GB evaluation SSD (§6.1).
#[derive(Debug)]
pub struct FlashArray {
    chips: Vec<NandChip>,
}

impl FlashArray {
    /// Creates `n` chips with per-chip process variation derived from
    /// `seed`.
    pub fn new(config: NandConfig, n: usize, seed: u64) -> Self {
        FlashArray {
            chips: (0..n)
                .map(|i| NandChip::new(config, seed.wrapping_add(i as u64 * 0x51ed)))
                .collect(),
        }
    }

    /// Number of chips.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Whether the array has no chips.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Shared access to chip `i`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ChipOutOfRange`] for an invalid index.
    pub fn chip(&self, i: usize) -> Result<&NandChip, NandError> {
        self.chips.get(i).ok_or(NandError::ChipOutOfRange(i))
    }

    /// Exclusive access to chip `i`.
    ///
    /// # Errors
    ///
    /// Returns [`NandError::ChipOutOfRange`] for an invalid index.
    pub fn chip_mut(&mut self, i: usize) -> Result<&mut NandChip, NandError> {
        self.chips.get_mut(i).ok_or(NandError::ChipOutOfRange(i))
    }

    /// Iterates over the chips.
    pub fn iter(&self) -> std::slice::Iter<'_, NandChip> {
        self.chips.iter()
    }

    /// Iterates mutably over the chips.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, NandChip> {
        self.chips.iter_mut()
    }

    /// Pins every chip to an aging state.
    pub fn set_aging(&mut self, state: AgingState) {
        for c in &mut self.chips {
            c.set_aging(state);
        }
    }

    /// Sets every chip's ambient-disturbance probability.
    pub fn set_disturbance_prob(&mut self, p: f64) {
        for c in &mut self.chips {
            c.env_mut().set_disturbance_prob(p);
        }
    }

    /// Sets every chip's ambient temperature in °C (retention loss
    /// scales with an Arrhenius law around the 30 °C reference).
    pub fn set_ambient_celsius(&mut self, celsius: f64) {
        for c in &mut self.chips {
            c.env_mut().set_ambient_celsius(celsius);
        }
    }

    /// Enables per-block retention tracking on every chip: erases reset a
    /// block's retention age, so background scrubbing actually rejuvenates
    /// data (see [`Environment::set_block_retention_tracking`]).
    pub fn set_block_retention_tracking(&mut self, on: bool) {
        for c in &mut self.chips {
            c.set_block_retention_tracking(on);
        }
    }

    /// Installs `plan` on every chip, each with its own fault stream
    /// derived from the plan seed and the chip index.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        for (i, c) in self.chips.iter_mut().enumerate() {
            c.set_fault_plan(plan, i as u64);
        }
    }

    /// Array-wide totals of injected faults.
    pub fn fault_counters(&self) -> FaultCounters {
        self.chips.iter().fold(FaultCounters::default(), |acc, c| {
            acc.merged(&c.fault_counters())
        })
    }

    /// Registers every chip's lifetime command counts plus the array-wide
    /// injected-fault totals under `prefix` (e.g. `nand.chip0.programs`).
    pub fn register_metrics(&self, reg: &mut telemetry::MetricRegistry, prefix: &str) {
        for (i, c) in self.chips.iter().enumerate() {
            let (erases, programs, reads) = c.op_counts();
            reg.counter(&format!("{prefix}.chip{i}.erases"), erases);
            reg.counter(&format!("{prefix}.chip{i}.programs"), programs);
            reg.counter(&format!("{prefix}.chip{i}.reads"), reads);
        }
        self.fault_counters()
            .register_metrics(reg, &format!("{prefix}.faults"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ispp::ProgramParams;
    use proptest::prelude::*;

    fn chip() -> NandChip {
        NandChip::new(NandConfig::small(), 5)
    }

    #[test]
    fn erase_program_read_roundtrip() {
        let mut c = chip();
        let b = BlockId(1);
        c.erase(b).unwrap();
        let wl = c.geometry().wl_addr(b, 2, 1);
        c.program_wl(wl, WlData::from_pages([7, 8, 9]), &ProgramParams::default())
            .unwrap();
        for (i, expected) in [7u64, 8, 9].iter().enumerate() {
            let p = c.geometry().page_addr(b, 2, 1, i as u8);
            c.read_page(p, ReadParams::default()).unwrap();
            assert_eq!(c.page_tag(p), Some(*expected));
        }
    }

    #[test]
    fn double_program_rejected_until_erase() {
        let mut c = chip();
        let b = BlockId(0);
        c.erase(b).unwrap();
        let wl = c.geometry().wl_addr(b, 0, 0);
        c.program_wl(wl, WlData::host(0), &ProgramParams::default())
            .unwrap();
        let err = c
            .program_wl(wl, WlData::host(3), &ProgramParams::default())
            .unwrap_err();
        assert_eq!(err, NandError::ProgramOnDirtyWl(wl));
        c.erase(b).unwrap();
        c.program_wl(wl, WlData::host(3), &ProgramParams::default())
            .unwrap();
    }

    #[test]
    fn read_unwritten_rejected() {
        let mut c = chip();
        let p = c.geometry().page_addr(BlockId(0), 0, 0, 0);
        assert_eq!(
            c.read_page(p, ReadParams::default()).unwrap_err(),
            NandError::ReadUnwritten(p)
        );
    }

    #[test]
    fn out_of_range_addresses_rejected() {
        let mut c = chip();
        let g = *c.geometry();
        assert!(matches!(
            c.erase(BlockId(g.blocks_per_chip)),
            Err(NandError::BlockOutOfRange(_))
        ));
        let wl = g.wl_addr(BlockId(0), g.hlayers_per_block, 0);
        assert!(matches!(
            c.program_wl(wl, WlData::host(0), &ProgramParams::default()),
            Err(NandError::WlOutOfRange(_))
        ));
        let p = g.page_addr(BlockId(0), 0, 0, 3);
        assert!(matches!(
            c.read_page(p, ReadParams::default()),
            Err(NandError::PageOutOfRange(_))
        ));
    }

    #[test]
    fn erase_advances_pe_and_frees_wls() {
        let mut c = chip();
        let b = BlockId(3);
        c.erase(b).unwrap();
        let wl = c.geometry().wl_addr(b, 1, 1);
        c.program_wl(wl, WlData::host(0), &ProgramParams::default())
            .unwrap();
        assert_eq!(c.wl_state(wl), PageState::Written);
        c.erase(b).unwrap();
        assert_eq!(c.wl_state(wl), PageState::Free);
        assert_eq!(c.env().erase_count(3), 2);
    }

    #[test]
    fn program_reports_monitorable_values() {
        let mut c = chip();
        c.erase(BlockId(0)).unwrap();
        let wl = c.geometry().wl_addr(BlockId(0), 4, 0);
        let r = c
            .program_wl(wl, WlData::host(0), &ProgramParams::default())
            .unwrap();
        assert!(r.latency_us > 0.0);
        assert!(r.ber_ep1 > 0.0);
        assert!(r.post_ber > 0.0);
        assert!(r.pulses > 0);
        assert!(r.verifies > 0);
        for iv in r.loop_intervals {
            assert!(iv.lmin >= 1 && iv.lmin <= iv.lmax);
        }
    }

    #[test]
    fn follower_with_leader_params_is_faster_and_equally_reliable() {
        let mut c = chip();
        c.erase(BlockId(2)).unwrap();
        let leader = c.geometry().wl_addr(BlockId(2), 3, 0);
        let report = c
            .program_wl(leader, WlData::host(0), &ProgramParams::default())
            .unwrap();
        let mut params = ProgramParams::default();
        for (s, iv) in report.loop_intervals.iter().enumerate() {
            params.n_skip[s] = iv.safe_skip();
        }
        let follower = c.geometry().wl_addr(BlockId(2), 3, 1);
        let fr = c.program_wl(follower, WlData::host(3), &params).unwrap();
        assert!(fr.latency_us < report.latency_us);
        assert!((fr.post_ber - report.post_ber).abs() / report.post_ber < 0.05);
    }

    #[test]
    fn flash_array_addressing() {
        let mut arr = FlashArray::new(NandConfig::small(), 4, 9);
        assert_eq!(arr.len(), 4);
        assert!(!arr.is_empty());
        assert!(arr.chip(4).is_err());
        arr.chip_mut(0).unwrap().erase(BlockId(0)).unwrap();
        assert_eq!(arr.chip(0).unwrap().op_counts().0, 1);
        assert_eq!(arr.chip(1).unwrap().op_counts().0, 0);
    }

    #[test]
    fn oob_roundtrip_and_block_seq_tracking() {
        let mut c = chip();
        let b = BlockId(1);
        c.erase_tagged(b, 41).unwrap();
        assert_eq!(c.block_erase_seq(b), 41);
        assert_eq!(c.block_prog_seq(b), 0);
        let wl = c.geometry().wl_addr(b, 0, 0);
        // OOB on an unwritten WL is rejected.
        assert!(c.write_oob(wl, 42).is_err());
        let data = WlData::from_pages([10, 11, WlData::PAD]);
        c.program_wl(wl, data, &ProgramParams::default()).unwrap();
        // The program stored the tags; the record is complete once stamped.
        assert_eq!(c.wl_oob(wl), None);
        c.write_oob(wl, 42).unwrap();
        let oob = WlOob {
            lpns: data.pages,
            seq: 42,
            status: OobStatus::Complete,
        };
        assert_eq!(c.wl_oob(wl), Some(oob));
        assert_eq!(c.block_prog_seq(b), 42);
        // Erase clears OOB and the program-seq tracker.
        c.erase_tagged(b, 50).unwrap();
        assert_eq!(c.wl_oob(wl), None);
        assert_eq!(c.block_prog_seq(b), 0);
        assert_eq!(c.block_erase_seq(b), 50);
    }

    #[test]
    fn spare_record_is_24_bytes() {
        assert_eq!(std::mem::size_of::<WlSpare>(), 24);
    }

    #[test]
    fn out_of_range_tag_is_rejected_before_any_draw() {
        let plan = FaultPlan::seeded(3)
            .with_rate(crate::FaultKind::ProgramAbort, 0.2)
            .with_rate(crate::FaultKind::BerSpike, 0.2);
        let twin = || {
            let mut c = chip();
            c.set_fault_plan(&plan, 0);
            c.env_mut().set_disturbance_prob(0.5);
            c.erase(BlockId(1)).unwrap();
            c
        };
        let (mut c, mut untouched) = (twin(), twin());
        let wl = c.geometry().wl_addr(BlockId(1), 2, 1);
        let tag = u64::from(u32::MAX);
        assert_eq!(
            c.program_wl(
                wl,
                WlData::from_pages([5, tag, 6]),
                &ProgramParams::default()
            ),
            Err(NandError::TagOutOfRange(tag))
        );
        assert_eq!(c.wl_state(wl), PageState::Free);
        assert_eq!(c.op_counts(), untouched.op_counts());
        // The next commands of both chips report alike: the rejected
        // call drew no fault and no disturbance.
        let next = |c: &mut NandChip| {
            let g = *c.geometry();
            let data = WlData::from_pages([5, u64::from(u32::MAX - 1), WlData::PAD]);
            let reports: Vec<_> = (0..4)
                .map(|v| {
                    let wl = g.wl_addr(BlockId(1), 2, v);
                    let program = c.program_wl(wl, data, &ProgramParams::default());
                    let read = c.read_page(g.page_addr(BlockId(1), 2, v, 1), ReadParams::default());
                    (program, read)
                })
                .collect();
            (reports, c.fault_counters(), c.op_counts())
        };
        assert_eq!(next(&mut c), next(&mut untouched));
    }

    #[test]
    fn interrupted_program_leaves_torn_unreadable_wl() {
        let mut c = chip();
        let b = BlockId(2);
        c.erase(b).unwrap();
        let wl = c.geometry().wl_addr(b, 1, 0);
        c.program_wl(wl, WlData::host(30), &ProgramParams::default())
            .unwrap();
        c.write_oob(wl, 7).unwrap();
        assert!(c.interrupt_program(wl));
        assert_eq!(c.wl_state(wl), PageState::Partial);
        let torn = WlOob {
            lpns: [30, 31, 32],
            seq: 7,
            status: OobStatus::Torn,
        };
        assert_eq!(c.wl_oob(wl), Some(torn));
        // Partial WLs reject both reads and re-programs until erase.
        let p = c.geometry().page_addr(b, 1, 0, 0);
        assert!(matches!(
            c.read_page(p, ReadParams::default()),
            Err(NandError::ReadUnwritten(_))
        ));
        assert!(matches!(
            c.program_wl(wl, WlData::host(60), &ProgramParams::default()),
            Err(NandError::ProgramOnDirtyWl(_))
        ));
        assert_eq!(c.wl_state(wl), PageState::Partial);
        // A free WL has nothing in flight to tear.
        let free_wl = c.geometry().wl_addr(b, 2, 0);
        assert!(!c.interrupt_program(free_wl));
        c.erase(b).unwrap();
        assert_eq!(c.wl_state(wl), PageState::Free);
        c.program_wl(wl, WlData::host(60), &ProgramParams::default())
            .unwrap();
    }

    #[test]
    fn interrupted_erase_blocks_use_until_reerase() {
        let mut c = chip();
        let b = BlockId(4);
        c.erase(b).unwrap();
        let wl = c.geometry().wl_addr(b, 0, 0);
        // A block with live data is not mid-erase; the guard refuses.
        c.program_wl(wl, WlData::host(0), &ProgramParams::default())
            .unwrap();
        assert!(!c.interrupt_erase(b));
        c.erase(b).unwrap();
        assert!(c.interrupt_erase(b));
        assert!(c.block_erase_interrupted(b));
        assert!(matches!(
            c.program_wl(wl, WlData::host(0), &ProgramParams::default()),
            Err(NandError::ProgramOnDirtyWl(_))
        ));
        c.erase(b).unwrap();
        assert!(!c.block_erase_interrupted(b));
        c.program_wl(wl, WlData::host(0), &ProgramParams::default())
            .unwrap();
    }

    /// Fills `block` so its pages can be read.
    fn rewrite(c: &mut NandChip, block: u32) {
        c.erase(BlockId(block)).unwrap();
        let g = *c.geometry();
        for h in 0..g.hlayers_per_block {
            for v in 0..g.wls_per_hlayer {
                let wl = g.wl_addr(BlockId(block), h, v);
                c.program_wl(wl, WlData::host(0), &ProgramParams::default())
                    .unwrap();
            }
        }
    }

    #[test]
    fn steady_state_reads_evaluate_no_formula() {
        use crate::read::EVALS;
        let mut c = chip();
        rewrite(&mut c, 1);
        rewrite(&mut c, 2);
        c.set_aging(AgingState::EndOfLife);
        let g = *c.geometry();
        let read_layer = |c: &mut NandChip, n: u32| {
            let before = EVALS.get();
            for i in 0..n {
                let page = g.page_addr(BlockId(1), 3, (i % 4) as u16, (i % 3) as u8);
                c.read_page(page, ReadParams::default()).unwrap();
            }
            let after = EVALS.get();
            (after.0 - before.0, after.1 - before.1)
        };
        // (block-prefix evaluations, h-layer offset evaluations)
        assert_eq!(read_layer(&mut c, 100), (1, 1), "first read derives both");
        assert_eq!(read_layer(&mut c, 100), (0, 0), "steady state");
        c.erase(BlockId(2)).unwrap();
        assert_eq!(read_layer(&mut c, 100), (0, 0), "another block's erase");
        c.env_mut().set_ambient_celsius(40.0);
        assert_eq!(read_layer(&mut c, 100), (1, 1), "the months half moved");
        let before = EVALS.get();
        rewrite(&mut c, 1);
        assert_eq!(EVALS.get().0 - before.0, 1, "one erase, one block prefix");
        assert_eq!(read_layer(&mut c, 100), (0, 1), "the P/E half moved");
    }

    proptest! {
        /// The memo against the formulas it caches: after every event
        /// that can move a block's wear or retention, what the chip
        /// would use for a random WL equals `RetryEngine`'s and
        /// `IsppEngine`'s direct evaluation bit for bit.
        #[test]
        fn cached_optimum_matches_the_formula(
            ops in prop::collection::vec(
                (0u8..12, 0u32..8, 0u16..8, 0u32..3000, 0u32..140),
                1..120,
            ),
        ) {
            let mut c = chip();
            let g = *c.geometry();
            for &(op, block, h, pe, tenths) in &ops {
                let (b, months) = (block as usize, f64::from(tenths) / 10.0);
                match op {
                    0 => { c.erase(BlockId(block)).unwrap(); }
                    1 => c.set_aging(AgingState::ALL[pe as usize % 3]),
                    2 => c.env_mut().set_aging_raw(pe, months),
                    3 => c.env_mut().clear_aging(),
                    4 => c.env_mut().mark_refreshed(b),
                    5 => c.set_block_retention_tracking(pe % 2 == 0),
                    6 => c.env_mut().enable_lifetime_aging(),
                    7 if c.env().lifetime_aging_enabled() => {
                        c.env_mut().advance_block_age(b, pe / 4, months / 4.0);
                    }
                    8 => c.env_mut().set_ambient_celsius(f64::from(tenths) - 20.0),
                    9 => rewrite(&mut c, block),
                    _ => {}
                }
                let wl = g.wl_addr(BlockId(block), h, (pe % 4) as u16);
                let (terms, optimum) = c.read_terms(wl);
                prop_assert_eq!(optimum, c.retry.optimal_offset(&c.process, wl, &c.env));
                prop_assert_eq!(terms.predicted, c.retry.predicted_offset(&c.env, b));
                prop_assert_eq!(
                    terms.need_probability.to_bits(),
                    c.retry.retry_need_probability(&c.env, b).to_bits()
                );
                let direct = c.ispp.characterize(&c.process, wl, &c.env, 0);
                let cached =
                    c.ispp.characterize_at(&c.process, wl, terms.pe, terms.retention_term, 0);
                prop_assert_eq!(cached.base_ber.to_bits(), direct.base_ber.to_bits());
                prop_assert_eq!(cached, direct);
            }
        }
    }

    #[test]
    fn chips_have_distinct_process_variation() {
        let arr = FlashArray::new(NandConfig::small(), 2, 9);
        let g = *arr.chip(0).unwrap().geometry();
        let wl = g.wl_addr(BlockId(0), 3, 0);
        let a = arr.chip(0).unwrap().process().wl_factor(wl);
        let b = arr.chip(1).unwrap().process().wl_factor(wl);
        assert_ne!(a, b);
    }
}
