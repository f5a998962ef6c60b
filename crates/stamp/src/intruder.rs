//! intruder — network intrusion detection (STAMP `intruder`).
//!
//! A stream of fragmented network flows is reassembled concurrently: each
//! worker pops a packet, inserts its fragment into the shared decoder state
//! (a flow map of fragment sets), and when a flow completes, extracts it
//! and scans the reassembled payload for an attack signature.
//!
//! Section 4: the original STAMP decoder keys the *unordered* flow map with
//! a red-black tree and keeps each flow's *ordered* fragments in a linked
//! list — walking a long fragment list inside the insertion transaction
//! inflates the footprint linearly. The modified variant uses a hash table
//! for the flow map and a red-black tree for the fragments, the structures
//! actually suited to each set.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use htm_core::WordAddr;
use htm_runtime::{Sim, ThreadCtx};
use tm_structs::{TmList, TmQueue, TmRbTree};

use crate::common::{Scale, Workload};
use crate::tmmap::TmMap;

/// Original vs modified decoder structures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntruderVariant {
    /// Red-black-tree flow map + linked-list fragment sets (STAMP 0.9.10).
    Original,
    /// Hash-table flow map + red-black-tree fragment sets (the fix).
    Modified,
}

/// intruder configuration.
#[derive(Clone, Copy, Debug)]
pub struct IntruderConfig {
    /// Number of flows.
    pub n_flows: u32,
    /// Maximum fragments per flow.
    pub max_fragments: u32,
    /// Payload characters per fragment.
    pub fragment_chars: u32,
    /// Percentage of flows carrying the attack signature.
    pub attack_pct: u32,
    /// Decoder structures.
    pub variant: IntruderVariant,
}

impl IntruderConfig {
    /// Configuration for a scale.
    pub fn at(scale: Scale, variant: IntruderVariant) -> IntruderConfig {
        let (n_flows, max_fragments) = match scale {
            Scale::Tiny => (64, 8),
            Scale::Sim => (2048, 16),
            Scale::Full => (1 << 16, 32),
        };
        IntruderConfig { n_flows, max_fragments, fragment_chars: 32, attack_pct: 10, variant }
    }
}

/// Packet record: `[flow_id, frag_id, n_frags, data_words…]`.
const PKT_FLOW: u32 = 0;
const PKT_FRAG: u32 = 1;
const PKT_NFRAGS: u32 = 2;
const PKT_DATA: u32 = 3;

/// Flow record: `[n_frags, received, container]` where `container` is a
/// fragment structure header (list or tree depending on variant).
const FLOW_NFRAGS: u32 = 0;
const FLOW_RECEIVED: u32 = 1;
const FLOW_CONTAINER: u32 = 2;
const FLOW_WORDS: u32 = 3;

/// The attack signature searched for in reassembled payloads (packed
/// 8 characters, one byte each).
const SIGNATURE: &[u8] = b"ATTACK!!";

struct Shared {
    packets: TmQueue,
    flow_map: TmMap,
    expected_attacks: u32,
}

/// The intruder workload.
pub struct Intruder {
    cfg: IntruderConfig,
    seed: u64,
    shared: OnceLock<Shared>,
    flows_done: AtomicU64,
    attacks_found: AtomicU64,
}

impl Intruder {
    /// Creates an intruder workload.
    pub fn new(cfg: IntruderConfig, seed: u64) -> Intruder {
        Intruder {
            cfg,
            seed,
            shared: OnceLock::new(),
            flows_done: AtomicU64::new(0),
            attacks_found: AtomicU64::new(0),
        }
    }

    fn words_per_fragment(&self) -> u32 {
        self.cfg.fragment_chars.div_ceil(8)
    }
}

impl Workload for Intruder {
    fn name(&self) -> String {
        format!(
            "intruder ({})",
            match self.cfg.variant {
                IntruderVariant::Original => "original",
                IntruderVariant::Modified => "modified",
            }
        )
    }

    fn mem_words(&self) -> u32 {
        self.cfg.n_flows * self.cfg.max_fragments * (self.words_per_fragment() + 8) + (1 << 18)
    }

    fn setup(&self, sim: &Sim) {
        let cfg = self.cfg;
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut ctx = sim.seq_ctx();
        let use_hash = cfg.variant == IntruderVariant::Modified;
        // The packet queue's header is written by every capture transaction
        // and the flow map's header is read by every decode transaction;
        // packed next to each other they false-share one conflict line and
        // the two phases abort each other (htm-lint's hottest finding).
        // Pre-allocate each header on its own line.
        let buckets = cfg.n_flows.max(16);
        let q_hdr = ctx.alloc_line(TmQueue::HEADER_WORDS);
        let m_hdr = ctx.alloc_line(TmMap::header_words(use_hash, buckets));
        let (packets, flow_map) = {
            let mut created = None;
            ctx.atomic(|tx| {
                created = Some((
                    TmQueue::create_at(tx, q_hdr)?,
                    TmMap::create_at(tx, m_hdr, use_hash, buckets)?,
                ));
                Ok(())
            });
            created.unwrap()
        };

        // Generate flows, fragment them, and shuffle all packets.
        let wpf = self.words_per_fragment();
        let mut all_packets: Vec<WordAddr> = Vec::new();
        let mut expected_attacks = 0u32;
        for flow in 0..cfg.n_flows {
            let n_frags = rng.gen_range(1..=cfg.max_fragments);
            let has_attack = rng.gen_range(0..100) < cfg.attack_pct;
            if has_attack {
                expected_attacks += 1;
            }
            // Payload: random bytes; attack flows embed the signature at a
            // random fragment-aligned-ish offset.
            let total_chars = (n_frags * cfg.fragment_chars) as usize;
            let mut payload: Vec<u8> =
                (0..total_chars).map(|_| rng.gen_range(b'a'..=b'z')).collect();
            if has_attack {
                let at = rng.gen_range(0..=(total_chars - SIGNATURE.len()));
                payload[at..at + SIGNATURE.len()].copy_from_slice(SIGNATURE);
            }
            for frag in 0..n_frags {
                let pkt = ctx.alloc(PKT_DATA + wpf);
                sim.write_word(pkt.offset(PKT_FLOW), flow as u64);
                sim.write_word(pkt.offset(PKT_FRAG), frag as u64);
                sim.write_word(pkt.offset(PKT_NFRAGS), n_frags as u64);
                for w in 0..wpf {
                    let mut word = 0u64;
                    for b in 0..8 {
                        let idx = (frag * cfg.fragment_chars + w * 8 + b) as usize;
                        let ch = if idx < (frag as usize + 1) * cfg.fragment_chars as usize {
                            payload[idx]
                        } else {
                            0
                        };
                        word |= (ch as u64) << (8 * b);
                    }
                    sim.write_word(pkt.offset(PKT_DATA + w), word);
                }
                all_packets.push(pkt);
            }
        }
        all_packets.shuffle(&mut rng);
        for pkt in all_packets {
            ctx.atomic(|tx| packets.push(tx, pkt.to_repr()));
        }
        self.shared
            .set(Shared { packets, flow_map, expected_attacks })
            .ok()
            .expect("setup ran twice");
    }

    fn work(&self, ctx: &mut ThreadCtx) {
        let cfg = self.cfg;
        let sh = self.shared.get().expect("setup not run");
        let wpf = self.words_per_fragment();
        let use_tree_frags = cfg.variant == IntruderVariant::Modified;

        // Capture phase: one small transaction pops a packet.
        while let Some(pkt) = ctx.atomic(|tx| sh.packets.pop(tx)) {
            let pkt = WordAddr::from_repr(pkt);

            // Decode phase: insert the fragment; extract the flow if
            // complete (one transaction, as in STAMP).
            let completed = ctx.atomic(|tx| {
                // Header parsing / checksum of the packet.
                tx.tick(700);
                let flow = tx.load(pkt.offset(PKT_FLOW))?;
                let frag = tx.load(pkt.offset(PKT_FRAG))?;
                let n_frags = tx.load(pkt.offset(PKT_NFRAGS))?;
                let flow_rec = match sh.flow_map.get(tx, flow)? {
                    Some(r) => WordAddr::from_repr(r),
                    None => {
                        let r = tx.alloc(FLOW_WORDS);
                        tx.store(r.offset(FLOW_NFRAGS), n_frags)?;
                        tx.store(r.offset(FLOW_RECEIVED), 0)?;
                        let container = if use_tree_frags {
                            TmRbTree::create(tx)?.as_raw()
                        } else {
                            TmList::create(tx)?.as_raw()
                        };
                        tx.store_addr(r.offset(FLOW_CONTAINER), container)?;
                        sh.flow_map.insert(tx, flow, r.to_repr())?;
                        r
                    }
                };
                let container = tx.load_addr(flow_rec.offset(FLOW_CONTAINER))?;
                let inserted = if use_tree_frags {
                    TmRbTree::from_raw(container).insert(tx, frag, pkt.to_repr())?
                } else {
                    TmList::from_raw(container).insert(tx, frag, pkt.to_repr())?
                };
                assert!(inserted, "duplicate fragment {flow}/{frag}");
                let received = tx.load(flow_rec.offset(FLOW_RECEIVED))? + 1;
                tx.store(flow_rec.offset(FLOW_RECEIVED), received)?;
                if received < n_frags {
                    return Ok(None);
                }
                // Flow complete: collect fragment packets in order and
                // remove the flow from the map.
                let mut frags = Vec::with_capacity(n_frags as usize);
                if use_tree_frags {
                    TmRbTree::from_raw(container).for_each(tx, |_, v| {
                        frags.push(WordAddr::from_repr(v));
                        Ok(())
                    })?;
                } else {
                    TmList::from_raw(container).for_each(tx, |_, v| {
                        frags.push(WordAddr::from_repr(v));
                        Ok(())
                    })?;
                }
                // Read payloads inside the transaction (the reassembly).
                let mut payload =
                    Vec::with_capacity((n_frags * cfg.fragment_chars as u64) as usize);
                for f in &frags {
                    for w in 0..wpf {
                        let word = tx.load(f.offset(PKT_DATA + w))?;
                        for b in 0..8 {
                            let ch = ((word >> (8 * b)) & 0xff) as u8;
                            if ch != 0 {
                                payload.push(ch);
                            }
                        }
                    }
                }
                sh.flow_map.remove(tx, flow)?;
                Ok(Some(payload))
            });

            // Detection phase: scan the reassembled flow (host compute,
            // charged per character).
            if let Some(payload) = completed {
                ctx.tick(payload.len() as u64 * 6);
                let hit = payload.windows(SIGNATURE.len()).any(|w| w == SIGNATURE);
                self.flows_done.fetch_add(1, Ordering::Relaxed);
                if hit {
                    self.attacks_found.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn verify(&self, sim: &Sim) {
        let sh = self.shared.get().expect("setup not run");
        assert_eq!(
            self.flows_done.load(Ordering::Relaxed),
            self.cfg.n_flows as u64,
            "flows lost in reassembly"
        );
        assert_eq!(
            self.attacks_found.load(Ordering::Relaxed),
            sh.expected_attacks as u64,
            "attack detection mismatch"
        );
        let mut ctx = sim.seq_ctx();
        ctx.atomic(|tx| {
            assert!(sh.flow_map.is_empty(tx)?, "flows left in the decoder");
            assert_eq!(sh.packets.len(tx)?, 0, "packets left in the queue");
            Ok(())
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{measure, BenchParams};
    use htm_machine::Platform;

    #[test]
    fn intruder_detects_all_attacks_on_all_platforms() {
        for p in Platform::ALL {
            for v in [IntruderVariant::Original, IntruderVariant::Modified] {
                let r = measure(
                    &|| Intruder::new(IntruderConfig::at(Scale::Tiny, v), 33),
                    &p.config(),
                    &BenchParams { threads: 2, scale: Scale::Tiny, ..Default::default() },
                );
                assert!(r.stats.committed_blocks() > 0, "{p} {v:?}");
            }
        }
    }

    #[test]
    fn fragment_list_walk_costs_more_capacity_on_power8() {
        let p = Platform::Power8.config();
        let run = |variant| {
            crate::common::run_parallel(
                &|| {
                    Intruder::new(
                        IntruderConfig {
                            n_flows: 128,
                            max_fragments: 24,
                            ..IntruderConfig::at(Scale::Tiny, variant)
                        },
                        33,
                    )
                },
                &p,
                &BenchParams { threads: 4, seed: 33, ..Default::default() },
            )
        };
        let orig = run(IntruderVariant::Original);
        let modi = run(IntruderVariant::Modified);
        let cap = |s: &htm_runtime::RunStats| s.aborts_in(htm_core::AbortCategory::Capacity);
        assert!(cap(&orig) >= cap(&modi), "original {} vs modified {}", cap(&orig), cap(&modi));
    }
}
