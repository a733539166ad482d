//! Micro-architecture experiments: Figure 7, Tables 5–7, Table 11, and
//! the Tech-2/Tech-3 claims.

use crate::util::{banner, pct, Table};
use lsdgnn_core::axe::load_unit;
use lsdgnn_core::axe::{pipeline_batch_latency, LoadUnitConfig, PipelineSpec};
use lsdgnn_core::fpga::{sampler_savings, PocDesign, Vu13p};
use lsdgnn_core::graph::generators;
use lsdgnn_core::mof::{bdi_compress, PackingScheme};
use lsdgnn_core::riscv::{measure_interaction_cost, InteractionStyle};
use lsdgnn_core::sampler::{quality, NeighborSampler, StandardSampler, StreamingSampler};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Figure 7: measured performance (latency) versus pipeline depth.
pub fn fig7() {
    banner("Fig 7", "batch latency vs GetNeighbor pipeline depth");
    let items = 512u64;
    let work = 16u64;
    let t = Table::new(&["depth", "latency (cyc)", "speedup"], &[8, 16, 12]);
    let base = pipeline_batch_latency(&PipelineSpec::new(work, 1, 8), items);
    for depth in [1u32, 2, 4, 8, 16] {
        let l = pipeline_batch_latency(&PipelineSpec::new(work, depth, 8), items);
        t.row(&[
            depth.to_string(),
            l.to_string(),
            format!("{:.2}x", base as f64 / l as f64),
        ]);
    }
    t.note("deeper pipeline -> better performance, as in the paper");
}

/// Table 5: MoF packing versus Gen-Z.
pub fn table5() {
    banner(
        "Table 5",
        "bandwidth utilization vs Gen-Z multi-read packing",
    );
    let t = Table::new(
        &["scheme", "request", "pkgs", "header", "addr", "data (util)"],
        &[10, 14, 10, 10, 10, 14],
    );
    for &size in &[16u64, 64] {
        for (name, scheme) in [
            ("genz", PackingScheme::GenZ),
            ("proposed", PackingScheme::Mof),
        ] {
            let b = scheme.breakdown(128, size);
            let pkgs = match scheme {
                PackingScheme::GenZ => b.request_packages + b.response_packages,
                PackingScheme::Mof => b.request_packages,
            };
            t.row(&[
                name.to_string(),
                format!("128x{size}B"),
                pkgs.to_string(),
                pct(b.header_fraction()),
                pct(b.address_fraction()),
                pct(b.data_fraction()),
            ]);
        }
    }
    t.note("paper: genz 64 pkgs / 32.65% & 65.98% util; proposed 2 pkgs / 78.11% & 94.03%");
}

/// Table 6: BDI compression on a 128 x 8B read package.
pub fn table6() {
    banner("Table 6", "BDI compression on 8B x 128 read package");
    // The batch: 128 reads of 8 B each from one sampling region —
    // addresses stride by the attribute size, data words share high bits.
    let addrs: Vec<u64> = (0..128u64).map(|i| 0x7F00_0000_0000 + i * 288).collect();
    let data: Vec<u64> = (0..128u64).map(|i| 1_000_000 + i * 37).collect();

    let genz = PackingScheme::GenZ.breakdown(128, 8).total_bytes();
    let mof = PackingScheme::Mof.breakdown(128, 8).total_bytes();

    let data_raw = 128 * 8;
    let data_comp = bdi_compress(&data).compressed_bytes();
    let mof_dcomp = mof - data_raw + data_comp;

    // Address compression: the 4B offsets inside request packages compress
    // further with BDI over the offset stream.
    let addr_raw = 2 * (8 + 4 * 64); // offsets in the two request packages
    let addr_comp = bdi_compress(&addrs).compressed_bytes();
    let mof_acomp = mof_dcomp - addr_raw.min(mof_dcomp) + addr_comp.min(addr_raw);

    let t = Table::new(&["configuration", "bytes to send", "saving"], &[26, 14, 10]);
    let mut prev = genz;
    for (name, bytes) in [
        ("GENZ", genz),
        ("MoF", mof),
        ("MoF w/ data comp.", mof_dcomp),
        ("MoF w/ addr comp.", mof_acomp),
    ] {
        let saving = if bytes < prev {
            format!("{:.0}%", 100.0 * (prev - bytes) as f64 / prev as f64)
        } else {
            "-".into()
        };
        t.row(&[name.to_string(), bytes.to_string(), saving]);
        prev = bytes;
    }
    t.note("paper: 6336 -> 1600 -> 864 -> 779 bytes");
}

/// Table 7: QRCH versus MMIO and tightly-coupled ISA extension.
pub fn table7() {
    banner(
        "Table 7",
        "accelerator interaction styles (measured on RV32 interpreter)",
    );
    let t = Table::new(
        &[
            "style",
            "cyc/interaction",
            "programmability",
            "extensibility",
        ],
        &[10, 18, 24, 16],
    );
    for (name, style) in [
        ("MMIO", InteractionStyle::Mmio),
        ("ISA-ext", InteractionStyle::IsaExt),
        ("QRCH", InteractionStyle::Qrch),
    ] {
        let cost = measure_interaction_cost(style, 500);
        t.row(&[
            name.to_string(),
            format!("{cost:.1}"),
            style.programmability().to_string(),
            style.extensibility().to_string(),
        ]);
    }
    t.note("paper: MMIO ~100 cyc, ISA-ext ~1 cyc, QRCH ~10 cyc");
}

/// Tech-2: streaming sampling — cycles, resources, model quality.
pub fn tech2() {
    banner("Tech-2", "streaming step-based sampling vs conventional");
    let (n, k) = (1_000usize, 100usize);
    let t = Table::new(&["sampler", "cycles", "buffer entries"], &[14, 10, 16]);
    t.row(&[
        "conventional".into(),
        StandardSampler.cycles(n, k).to_string(),
        StandardSampler.buffer_entries(n).to_string(),
    ]);
    t.row(&[
        "streaming".into(),
        StreamingSampler.cycles(n, k).to_string(),
        "0".into(),
    ]);
    let (lut, reg) = sampler_savings();
    println!(
        "sampler resource saving: {} LUTs, {} registers (paper: 91.9% / 23%)",
        pct(lut),
        pct(reg)
    );
    let (g, labels) = generators::two_community(600, 0.08, 0.02, 3);
    let mut rng = SmallRng::seed_from_u64(4);
    let cmp = quality::compare_streaming_vs_standard(&mut rng, &g, &labels, 10);
    println!(
        "proxy-task accuracy: standard {:.3}, streaming {:.3} (paper PPI: 0.549 vs 0.548)",
        cmp.standard_accuracy, cmp.streaming_accuracy
    );
}

/// Tech-3: OoO load unit throughput gain.
pub fn tech3() {
    banner("Tech-3", "OoO massive outstanding requests vs in-order");
    let t = Table::new(&["tags", "throughput", "speedup"], &[12, 16, 12]);
    let base = load_unit::simulate_stream(&LoadUnitConfig::in_order(), 2_000, 1_100, 1_400, 5);
    for tags in [1usize, 8, 16, 32, 64, 128] {
        let r = load_unit::simulate_stream(&LoadUnitConfig::ooo(tags), 2_000, 1_100, 1_400, 5);
        t.row(&[
            tags.to_string(),
            format!("{:.4} req/cyc", r.throughput),
            format!("{:.1}x", r.throughput / base.throughput),
        ]);
    }
    t.note("paper: OoO design improves throughput by ~30x");
}

/// Table 11: VU13P resource utilization of the PoC design.
pub fn table11() {
    banner(
        "Table 11",
        "resource utilization of VU13P (PoC configuration)",
    );
    let u = PocDesign::table10()
        .resources()
        .utilization(&Vu13p::default());
    let t = Table::new(
        &["CLBs", "LUTs", "CLB Reg", "BRAM", "URAM", "DSP"],
        &[10, 10, 10, 10, 10, 10],
    );
    t.row(&[
        format!("{:.2}%", u.clb_pct),
        format!("{:.2}%", u.lut_pct),
        format!("{:.2}%", u.reg_pct),
        format!("{:.2}%", u.bram_pct),
        format!("{:.2}%", u.uram_pct),
        format!("{:.2}%", u.dsp_pct),
    ]);
    t.note("paper: 60.53% / 35.07% / 22.48% / 39.29% / 40.00% / 12.50%");
    let max = PocDesign::table10().max_cores_fitting(&Vu13p::default());
    println!("scale-up headroom: up to {max} AxE cores fit the device");
}
