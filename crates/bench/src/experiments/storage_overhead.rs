//! §7.2 storage overhead: the cost of keeping K fidelity versions on flash.

use sti::prelude::*;

use crate::harness;
use crate::report::{human_bytes, measured_rss, TextTable};

/// Reads the on-disk shard store the SST-2 context serves from (all fidelity
/// versions) and reports the bytes per version. The report names where the
/// store lives, not its path, which holds the process id, so two runs write
/// the same report. The paper stores 215 MB of
/// compressed versions next to the 418 MB full model (a 0.51 ratio); the
/// same ratio should hold here. What serving from that store holds in
/// memory is printed both ways: the analytic residents in the report, the
/// process's measured resident set on stderr.
pub fn run() -> String {
    let ctx = harness::context(TaskKind::Sst2);
    let server = build_server(&ctx, &ServeConfig::default());
    let store = ShardStore::open(ctx.shard_store_dir()).expect("the context wrote its store");

    let by_bw = store.stored_bytes_by_bitwidth();
    let full = by_bw[&Bitwidth::Full];
    let compressed: u64 = Bitwidth::COMPRESSED.iter().map(|bw| by_bw[bw]).sum();

    let mut t = TextTable::new(["Version", "Stored bytes", "vs full"]);
    for bw in Bitwidth::ALL {
        t.row([
            bw.to_string(),
            human_bytes(by_bw[&bw]),
            format!("{:.3}x", by_bw[&bw] as f64 / full as f64),
        ]);
    }
    t.row([
        "all compressed (2-6 bit)".to_string(),
        human_bytes(compressed),
        format!("{:.3}x", compressed as f64 / full as f64),
    ]);

    eprintln!("[storage_overhead] this process, teacher model included: {}", measured_rss());
    format!(
        "Storage overhead (§7.2): a real on-disk N x M x K shard store, in the context's own\n\
         directory under the system temp dir (removed when the context drops).\n\n{}\n\
         Compressed versions add {:.0}% on top of the full model\n\
         (paper: 215 MB on top of 418 MB = 51%; dictionary + outlier overhead explains\n\
         the difference from the ideal (2+3+4+5+6)/32 = 62.5% of index payloads).\n\
         Total store: {}.\n\
         Memory of a server streaming from it: {} of resident parameters (analytic,\n\
         `resident_bytes()`).\n",
        t.render(),
        100.0 * compressed as f64 / full as f64,
        human_bytes(store.total_bytes()),
        human_bytes(server.resident_bytes() as u64),
    )
}
