//! Ablation studies for the design choices DESIGN.md calls out:
//! coalescing-cache size (Tech-4), AxE core count vs Equation 3, MoF
//! packing factor (Tech-1), and the outstanding-request budget (Tech-3).

use crate::util::{banner, eng, pct, Table, Telemetry};
use lsdgnn_core::axe::{AccessEngine, AxeConfig};
use lsdgnn_core::graph::DatasetConfig;
use lsdgnn_core::memfabric::{outstanding_for_mix, AccessPattern, MemoryTier, TierConfig};
use lsdgnn_core::mof::packing::ByteBreakdown;

/// Tech-4 ablation: coalescing-cache capacity sweep. The paper argues
/// 8 KB captures all the spatial reuse there is; bigger caches buy
/// nothing because temporal reuse is absent at LSD-GNN scale.
pub fn cache_sweep(scale_nodes: u64, batches: u32, tel: &mut Telemetry) {
    banner(
        "Ablation: cache",
        "coalescing-cache size vs hit rate and throughput",
    );
    let d = DatasetConfig::by_name("ss").unwrap();
    let (g, _) = d.instantiate_scaled(scale_nodes, 31);
    let t = Table::new(
        &["cache", "hit rate", "samples/s", "mem bytes"],
        &[10, 12, 16, 14],
    );
    let measured = [1usize, 2, 4, 8, 16, 32, 64].into_iter().map(|kb| {
        let mut cfg = AxeConfig::poc().with_batch_size(48);
        cfg.cache_bytes = kb * 1024;
        (
            kb,
            AccessEngine::new(cfg).run(&g, d.attr_len as usize, batches),
        )
    });
    for (kb, m) in measured {
        tel.registry.register(
            "axe/ablation/cache",
            &[("cache_kb", &kb.to_string())],
            Box::new(m),
        );
        t.row(&[
            format!("{kb}KB"),
            pct(m.cache_hit_rate),
            format!("{}/s", eng(m.samples_per_sec)),
            eng((m.local_bytes + m.remote_bytes) as f64),
        ]);
    }
    t.note("paper Tech-4: 8KB suffices — spatial coalescing only, no temporal reuse to find");
}

/// Core-count sweep vs the Equation 3 demand. Throughput should rise
/// until the Eq.3-sized core count saturates the dominant link.
pub fn core_sweep(scale_nodes: u64, batches: u32) {
    banner(
        "Ablation: cores",
        "AxE core count vs throughput (PoC tiers)",
    );
    let d = DatasetConfig::by_name("ss").unwrap();
    let (g, _) = d.instantiate_scaled(scale_nodes, 32);
    let tier = TierConfig {
        local: MemoryTier::FpgaLocalDram { channels: 4 },
        remote: MemoryTier::Mof { links: 3 },
        output: MemoryTier::PciePeerToPeer,
    };
    let mix = [
        AccessPattern::new(8, 0.48),
        AccessPattern::new(d.attr_len as u64 * 4, 0.52),
    ];
    let demand = outstanding_for_mix(&tier.remote.link_model(), &mix);
    println!(
        "Eq.3 outstanding demand on the remote path: {:.0} requests (= {:.1} cores at 64 tags)",
        demand,
        demand / 64.0
    );
    let t = Table::new(&["cores", "samples/s", "avg outstanding"], &[8, 16, 16]);
    let measured = [1usize, 2, 4, 8, 16].into_iter().map(|cores| {
        let cfg = AxeConfig::poc()
            .with_cores(cores)
            .with_tier(tier)
            .with_batch_size(48)
            .with_output_limit(false)
            .with_max_outstanding(64);
        (
            cores,
            AccessEngine::new(cfg).run(&g, d.attr_len as usize, batches),
        )
    });
    let mut prev = 0.0;
    for (cores, m) in measured {
        let note = if prev > 0.0 && m.samples_per_sec < prev * 1.15 {
            " (saturated)"
        } else {
            ""
        };
        t.row(&[
            format!("{cores}{note}"),
            format!("{}/s", eng(m.samples_per_sec)),
            format!("{:.1}", m.avg_outstanding),
        ]);
        prev = m.samples_per_sec;
    }
}

/// Tech-1 ablation: requests-per-package factor. Utilization climbs
/// steeply from 1 to 64 requests per package for fine-grained reads.
pub fn packing_sweep() {
    banner(
        "Ablation: packing",
        "requests per package vs wire utilization (16B reads)",
    );
    let t = Table::new(&["req/package", "pkgs", "data util"], &[14, 10, 12]);
    for per in [1u64, 4, 16, 64] {
        // Generalized MoF accounting: header 12B per package each way,
        // 8B base + 4B offsets on requests.
        let n = 128u64;
        let pkgs = n.div_ceil(per);
        let b = ByteBreakdown {
            request_packages: pkgs,
            response_packages: pkgs,
            header_bytes: 12 * 2 * pkgs,
            address_bytes: (8 + 4 * per) * (n / per)
                + if !n.is_multiple_of(per) {
                    8 + 4 * (n % per)
                } else {
                    0
                },
            data_bytes: n * 16,
        };
        t.row(&[per.to_string(), pkgs.to_string(), pct(b.data_fraction())]);
    }
    t.note("Gen-Z-style 4-req packing is the paper's comparison point; MoF uses 64");
}

/// Tech-3 ablation at system level: the per-core outstanding budget on
/// the full engine (not just the isolated load unit).
pub fn outstanding_sweep(scale_nodes: u64, batches: u32) {
    banner(
        "Ablation: outstanding",
        "per-core tag budget vs engine throughput (remote-heavy config)",
    );
    let d = DatasetConfig::by_name("ll").unwrap();
    let (g, _) = d.instantiate_scaled(scale_nodes, 33);
    let t = Table::new(&["tags", "samples/s", "speedup"], &[8, 16, 16]);
    let measured = [1usize, 4, 16, 64, 128].into_iter().map(|tags| {
        let cfg = AxeConfig::poc()
            .with_batch_size(32)
            .with_max_outstanding(tags)
            .with_output_limit(false);
        (
            tags,
            AccessEngine::new(cfg).run(&g, d.attr_len as usize, batches),
        )
    });
    let mut base = 0.0;
    for (tags, m) in measured {
        if base == 0.0 {
            base = m.samples_per_sec;
        }
        t.row(&[
            tags.to_string(),
            format!("{}/s", eng(m.samples_per_sec)),
            format!("{:.1}x", m.samples_per_sec / base),
        ]);
    }
    t.note("the engine-level view of the Tech-3 '30x' claim");
}

/// Runs every ablation.
pub fn all(scale_nodes: u64, batches: u32, tel: &mut Telemetry) {
    cache_sweep(scale_nodes, batches, tel);
    core_sweep(scale_nodes, batches);
    packing_sweep();
    outstanding_sweep(scale_nodes, batches);
    serving_sweep(scale_nodes, batches);
}

/// Symmetric-serving ablation: what the per-card rate looks like when the
/// node also serves its peers' fetches from local memory.
pub fn serving_sweep(scale_nodes: u64, batches: u32) {
    banner(
        "Ablation: serving",
        "modeling the symmetric serving load on local memory",
    );
    let d = DatasetConfig::by_name("ll").unwrap();
    let (g, _) = d.instantiate_scaled(scale_nodes, 34);
    let t = Table::new(&["config", "samples/s", "local bytes"], &[22, 16, 16]);
    // A single local DDR channel makes the serving load visible (with
    // the PoC's 4 channels the MoF fabric binds first and serving is
    // absorbed).
    let tier = TierConfig {
        local: MemoryTier::FpgaLocalDram { channels: 1 },
        remote: MemoryTier::Mof { links: 3 },
        output: MemoryTier::PciePeerToPeer,
    };
    let configs = [("issue-only (PoC)", false), ("issue + serve peers", true)];
    let measured = configs.into_iter().map(|(name, serving)| {
        let cfg = AxeConfig::poc()
            .with_batch_size(32)
            .with_tier(tier)
            .with_output_limit(false)
            .with_symmetric_serving(serving);
        (
            name,
            AccessEngine::new(cfg).run(&g, d.attr_len as usize, batches),
        )
    });
    for (name, m) in measured {
        t.row(&[
            name.to_string(),
            format!("{}/s", eng(m.samples_per_sec)),
            eng(m.local_bytes as f64),
        ]);
    }
    t.note("all-to-all fabric symmetry: every byte fetched remotely is served by a peer");
}
