//! The registry's disk tier is the only cache a serving compile touches: a
//! process-wide compile cache installed with `set_global_cache_dir` must
//! be neither read nor written, or a hit there would be counted as a
//! compile and every miss would be stored twice. The global is
//! process-wide, so this check has a test binary of its own.

use rqp_serve::{Lookup, ServeConfig, Server, SessionSpec};

fn entries(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir).map_or(0, |d| d.count())
}

#[test]
fn registry_compiles_bypass_the_process_wide_cache() {
    let root = std::env::temp_dir().join(format!("rqp-global-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let (global, registry) = (root.join("global"), root.join("registry"));
    rqp_ess::set_global_cache_dir(&global).unwrap();

    let server = Server::start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        resolution: Some(6),
        cache_dir: Some(registry.clone()),
        ..ServeConfig::default()
    })
    .unwrap();
    server.submit(SessionSpec::new(0, "2D_Q91", "sb")).unwrap();
    let report = server.drain();
    rqp_ess::clear_global_cache_dir();

    assert_eq!(report.completed(), 1, "{}", report.render());
    assert_eq!(report.results[0].lookup, Some(Lookup::Compiled));
    assert_eq!(entries(&global), 0, "the serving compile wrote the process-wide cache");
    assert_eq!(entries(&registry), 1, "the registry's write-behind stores the surface once");
    let _ = std::fs::remove_dir_all(&root);
}
