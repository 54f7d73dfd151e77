//! Commutative-update specializations (Section VII-C): update coalescing.
//!
//! When updates commute, tuples destined to the same key can be merged,
//! shrinking bin traffic. PHI \[43\] buffers updates in cache *lines*, each
//! covering `tuples_per_line` adjacent keys, and coalesces hierarchically at
//! every level; COBRA-COMM adds an atomic reduction unit *only at the LLC*
//! ("as in PHI"), where the paper measures 97% of PHI's coalescing happens
//! anyway. Both are traffic models driven by the update-key stream, exactly
//! as the paper's custom cache simulator evaluates them, and both are
//! *idealized* (zero management overhead), as the paper models PHI.

use crate::isa::BinHierarchy;
use cobra_bins::BinStore;
use cobra_sim::LINE_BYTES;

/// Traffic outcome of a coalescing scheme over one update stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceReport {
    /// Updates consumed.
    pub updates: u64,
    /// Updates merged into a resident entry, by level (L1, L2, LLC).
    pub coalesced: [u64; 3],
    /// Coalesced tuples that reached in-memory bins.
    pub tuples_to_memory: u64,
    /// DRAM bytes written for bins (line-granular).
    pub dram_write_bytes: u64,
}

impl CoalesceReport {
    /// Total coalesced updates across levels.
    pub fn total_coalesced(&self) -> u64 {
        self.coalesced.iter().sum()
    }

    /// Fraction of all coalescing that happened at the LLC.
    pub fn llc_coalesce_share(&self) -> f64 {
        let t = self.total_coalesced();
        if t == 0 {
            0.0
        } else {
            self.coalesced[2] as f64 / t as f64
        }
    }
}

/// An update line in flight: the per-key merge counts for one
/// `tuples_per_line`-key range.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UpdateLine {
    line_id: u32,
    counts: Vec<u32>,
}

impl UpdateLine {
    fn tuples(&self) -> u64 {
        self.counts.iter().filter(|&&c| c > 0).count() as u64
    }
}

/// A set-associative cache of update lines (PHI's per-level reduction
/// buffers). A resident line absorbs any update to its key range.
#[derive(Debug, Clone)]
struct LineCache {
    sets: u64,
    ways: usize,
    entries: Vec<Option<UpdateLine>>,
    stamps: Vec<u64>,
    clock: u64,
    keys_per_line: u32,
}

impl LineCache {
    fn new(capacity_lines: u64, ways: usize, keys_per_line: u32) -> Self {
        let sets = (capacity_lines / ways as u64).next_power_of_two().max(1);
        let n = (sets * ways as u64) as usize;
        LineCache {
            sets,
            ways,
            entries: vec![None; n],
            stamps: vec![0; n],
            clock: 0,
            keys_per_line,
        }
    }

    /// Merges `line` in; returns `(absorbed_into_resident, evicted_line)`.
    fn insert(&mut self, line: UpdateLine) -> (bool, Option<UpdateLine>) {
        self.clock += 1;
        let set = (line.line_id as u64) & (self.sets - 1);
        let base = (set * self.ways as u64) as usize;
        let slots = base..base + self.ways;
        for i in slots.clone() {
            if let Some(e) = &mut self.entries[i] {
                if e.line_id == line.line_id {
                    for (a, b) in e.counts.iter_mut().zip(&line.counts) {
                        *a += b;
                    }
                    self.stamps[i] = self.clock;
                    return (true, None);
                }
            }
        }
        for i in slots.clone() {
            if self.entries[i].is_none() {
                self.entries[i] = Some(line);
                self.stamps[i] = self.clock;
                return (false, None);
            }
        }
        let victim = slots.min_by_key(|&i| self.stamps[i]).expect("ways > 0");
        let evicted = self.entries[victim].replace(line);
        self.stamps[victim] = self.clock;
        (false, evicted)
    }

    fn single(&self, key: u32) -> UpdateLine {
        let kpl = self.keys_per_line;
        let mut counts = vec![0u32; kpl as usize];
        counts[(key % kpl) as usize] = 1;
        UpdateLine {
            line_id: key / kpl,
            counts,
        }
    }

    fn drain(&mut self) -> Vec<UpdateLine> {
        self.entries.iter_mut().filter_map(Option::take).collect()
    }
}

fn emit(
    bins: &mut BinStore<u32>,
    report: &mut CoalesceReport,
    keys_per_line: u32,
    line: &UpdateLine,
) {
    for (slot, &c) in line.counts.iter().enumerate() {
        if c > 0 {
            let key = line.line_id * keys_per_line + slot as u32;
            bins.insert(key, c);
            report.tuples_to_memory += 1;
        }
    }
}

/// The coalesced `(key, multiplicity)` bins for `hier`'s memory geometry.
fn comm_bins(hier: &BinHierarchy) -> BinStore<u32> {
    BinStore::with_geometry(
        hier.memory_bin_shift(),
        hier.num_keys,
        hier.num_memory_bins() as usize,
    )
}

/// Packed bin traffic: tuples are written to bins through write-combining
/// (software PB's NT stores / COBRA's bin offsets), so traffic is the tuple
/// bytes rounded up to whole lines.
fn packed_bytes(tuples: u64, tuples_per_line: u64) -> u64 {
    tuples.div_ceil(tuples_per_line) * LINE_BYTES
}

/// Idealized PHI: hierarchical line-granular coalescing at L1, L2 and LLC,
/// sized by each level's reserved C-Buffer capacity, zero management
/// overhead. Returns the traffic report and the coalesced
/// `(key, multiplicity)` tuples grouped by in-memory bin (columnar).
pub fn run_phi<I>(keys: I, hier: &BinHierarchy) -> (CoalesceReport, BinStore<u32>)
where
    I: IntoIterator<Item = u32>,
{
    let kpl = hier.tuples_per_line();
    let mut levels = [
        LineCache::new(hier.levels[0].buffers, 8, kpl),
        LineCache::new(hier.levels[1].buffers, 8, kpl),
        LineCache::new(hier.levels[2].buffers, 16, kpl),
    ];
    let mut report = CoalesceReport::default();
    let mut bins = comm_bins(hier);
    for key in keys {
        report.updates += 1;
        let mut pending = Some(levels[0].single(key));
        for (li, level) in levels.iter_mut().enumerate() {
            let Some(line) = pending.take() else { break };
            let incoming = line.tuples();
            let (merged, evicted) = level.insert(line);
            if merged {
                report.coalesced[li] += incoming;
            }
            pending = evicted;
        }
        if let Some(line) = pending {
            emit(&mut bins, &mut report, kpl, &line);
        }
    }
    // Flush: drain each level downward; memory gets whatever survives.
    for li in 0..3 {
        for line in levels[li].drain() {
            let mut pending = Some(line);
            for level in levels.iter_mut().skip(li + 1) {
                let Some(line) = pending.take() else { break };
                let (_, evicted) = level.insert(line);
                pending = evicted;
            }
            if let Some(line) = pending {
                emit(&mut bins, &mut report, kpl, &line);
            }
        }
    }
    report.dram_write_bytes = packed_bytes(report.tuples_to_memory, kpl as u64);
    (report, bins)
}

/// COBRA-COMM: COBRA's hierarchy with an atomic reduction unit at the LLC
/// only — the LLC C-Buffer capacity acts as one line-granular coalescing
/// stage; tuples passing through L1/L2 C-Buffers are merely delayed, never
/// merged.
pub fn run_cobra_comm<I>(keys: I, hier: &BinHierarchy) -> (CoalesceReport, BinStore<u32>)
where
    I: IntoIterator<Item = u32>,
{
    let kpl = hier.tuples_per_line();
    let mut llc = LineCache::new(hier.levels[2].buffers, 16, kpl);
    let mut report = CoalesceReport::default();
    let mut bins = comm_bins(hier);
    for key in keys {
        report.updates += 1;
        let line = llc.single(key);
        let (merged, evicted) = llc.insert(line);
        if merged {
            report.coalesced[2] += 1;
        }
        if let Some(e) = evicted {
            emit(&mut bins, &mut report, kpl, &e);
        }
    }
    for line in llc.drain() {
        emit(&mut bins, &mut report, kpl, &line);
    }
    report.dram_write_bytes = packed_bytes(report.tuples_to_memory, kpl as u64);
    (report, bins)
}

/// Plain (non-coalescing) COBRA traffic over the same stream, for
/// comparison: every update becomes a bin tuple; bins are written in full
/// 64 B lines.
pub fn run_plain<I>(keys: I, hier: &BinHierarchy) -> CoalesceReport
where
    I: IntoIterator<Item = u32>,
{
    let kpl = hier.tuples_per_line() as u64;
    let mut report = CoalesceReport::default();
    for _ in keys {
        report.updates += 1;
    }
    report.tuples_to_memory = report.updates;
    report.dram_write_bytes = packed_bytes(report.updates, kpl);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::ReservedWays;
    use cobra_sim::MachineConfig;

    fn hier(keys: u32) -> BinHierarchy {
        let m = MachineConfig::hpca22();
        BinHierarchy::bininit(&m, ReservedWays::paper_default(&m), keys, 8)
    }

    fn skewed(n: usize, domain: u32) -> Vec<u32> {
        // Power-law-style stream (key = domain * u^6): a heavy head whose
        // repeat distances still exceed the private levels' coalescing
        // reach, as hub vertices behave in real edge streams.
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 11;
                let u = (h as f64) / (1u64 << 53) as f64;
                let k = domain as f64 * u.powi(6);
                (k as u32).min(domain - 1)
            })
            .collect()
    }

    fn uniform(n: usize, domain: u32) -> Vec<u32> {
        (0..n)
            .map(|i| ((i as u64 * 2654435761) % domain as u64) as u32)
            .collect()
    }

    #[test]
    fn weights_are_conserved() {
        let h = hier(1 << 16);
        let ks = skewed(50_000, 1 << 16);
        for (report, bins) in [
            run_phi(ks.iter().copied(), &h),
            run_cobra_comm(ks.iter().copied(), &h),
        ] {
            let total: u64 = (0..bins.num_bins())
                .flat_map(|b| bins.values(b))
                .map(|&c| c as u64)
                .sum();
            assert_eq!(
                total,
                ks.len() as u64,
                "every update accounted ({report:?})"
            );
            assert_eq!(report.updates, ks.len() as u64);
        }
    }

    #[test]
    fn tuples_live_in_their_bins() {
        let h = hier(1 << 16);
        let ks = skewed(20_000, 1 << 16);
        let (_, bins) = run_cobra_comm(ks.iter().copied(), &h);
        for b in 0..bins.num_bins() {
            for &k in bins.keys(b) {
                assert_eq!((k >> h.memory_bin_shift()) as usize, b);
            }
        }
    }

    #[test]
    fn coalescing_reduces_traffic_on_skewed_streams() {
        let h = hier(1 << 20);
        let ks = skewed(400_000, 1 << 20);
        let plain = run_plain(ks.iter().copied(), &h);
        let (phi, _) = run_phi(ks.iter().copied(), &h);
        let (comm, _) = run_cobra_comm(ks.iter().copied(), &h);
        // Scaled inputs (400 K updates vs the paper's 100 M+ edges) coalesce
        // less in absolute terms; the shape — both schemes clearly below
        // plain COBRA — is what must hold.
        assert!(
            (phi.dram_write_bytes as f64) < 0.8 * plain.dram_write_bytes as f64,
            "phi {} vs plain {}",
            phi.dram_write_bytes,
            plain.dram_write_bytes
        );
        assert!(
            (comm.dram_write_bytes as f64) < 0.8 * plain.dram_write_bytes as f64,
            "comm {} vs plain {}",
            comm.dram_write_bytes,
            plain.dram_write_bytes
        );
    }

    #[test]
    fn cobra_comm_close_to_phi_on_skewed_streams() {
        // The paper: COBRA-COMM matches PHI's traffic because PHI coalesces
        // the vast majority of updates at the LLC anyway.
        let h = hier(1 << 20);
        let ks = skewed(400_000, 1 << 20);
        let (phi, _) = run_phi(ks.iter().copied(), &h);
        let (comm, _) = run_cobra_comm(ks.iter().copied(), &h);
        let ratio = comm.dram_write_bytes as f64 / phi.dram_write_bytes as f64;
        assert!(
            (0.5..1.5).contains(&ratio),
            "COBRA-COMM/PHI traffic ratio {ratio}"
        );
    }

    #[test]
    fn uniform_streams_barely_coalesce() {
        let h = hier(1 << 20);
        let ks = uniform(100_000, 1 << 20);
        let (phi, _) = run_phi(ks.iter().copied(), &h);
        let frac = phi.total_coalesced() as f64 / phi.updates as f64;
        assert!(frac < 0.35, "uniform coalescing fraction {frac}");
    }

    #[test]
    fn llc_dominates_phi_coalescing() {
        // Hot keys repeat at distances far beyond the private levels'
        // capacity, so the LLC does most of the merging (the paper: 97%).
        let h = hier(1 << 20);
        let ks = skewed(400_000, 1 << 20);
        let (phi, _) = run_phi(ks.iter().copied(), &h);
        assert!(
            phi.llc_coalesce_share() > 0.5,
            "LLC share {} (by level: {:?})",
            phi.llc_coalesce_share(),
            phi.coalesced
        );
    }

    #[test]
    fn extreme_skew_single_key() {
        let h = hier(1 << 16);
        let ks = vec![42u32; 10_000];
        let (phi, bins) = run_phi(ks.iter().copied(), &h);
        assert_eq!(phi.tuples_to_memory, 1);
        let total: u64 = (0..bins.num_bins())
            .flat_map(|b| bins.values(b))
            .map(|&c| c as u64)
            .sum();
        assert_eq!(total, 10_000);
        let (comm, _) = run_cobra_comm(ks.iter().copied(), &h);
        assert_eq!(comm.tuples_to_memory, 1);
    }

    #[test]
    fn plain_traffic_is_line_rounded() {
        let h = hier(1 << 16);
        let plain = run_plain((0..17u32).map(|k| k * 100), &h);
        // 17 tuples of 8 B -> 3 lines.
        assert_eq!(plain.dram_write_bytes, 3 * 64);
        assert_eq!(plain.tuples_to_memory, 17);
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use crate::isa::ReservedWays;
    use cobra_sim::MachineConfig;

    #[test]
    #[ignore]
    fn probe_exponents() {
        let m = MachineConfig::hpca22();
        let h = BinHierarchy::bininit(&m, ReservedWays::paper_default(&m), 1 << 20, 8);
        for exp in [1.0f64, 2.0, 3.0, 4.0, 6.0] {
            let ks: Vec<u32> = (0..400_000usize)
                .map(|i| {
                    let hh = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 11;
                    let u = (hh as f64) / (1u64 << 53) as f64;
                    let k = (1u64 << 20) as f64 * u.powf(exp);
                    (k as u32).min((1 << 20) - 1)
                })
                .collect();
            let plain = run_plain(ks.iter().copied(), &h);
            let (phi, _) = run_phi(ks.iter().copied(), &h);
            let (comm, _) = run_cobra_comm(ks.iter().copied(), &h);
            println!("exp={exp}: phi/plain={:.3} comm/plain={:.3} comm/phi={:.3} llc_share={:.3} coalesced={:?}",
                phi.dram_write_bytes as f64 / plain.dram_write_bytes as f64,
                comm.dram_write_bytes as f64 / plain.dram_write_bytes as f64,
                comm.dram_write_bytes as f64 / phi.dram_write_bytes as f64,
                phi.llc_coalesce_share(), phi.coalesced);
        }
    }
}
