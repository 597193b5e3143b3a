//! FrontendArtifact cache correctness: a cached-then-cloned program must
//! build to a byte-identical image vs. a freshly compiled one, for both
//! a safe and an unsafe configuration, and repeated cache hits must not
//! drift (the middle-end mutates its copy, never the cached artifact).

use std::sync::Arc;
use std::time::Duration;

use safe_tinyos::{BuildSession, Pipeline};
use safe_tinyos_suite as _;

#[test]
fn cached_artifact_builds_byte_identical_images() {
    let session = BuildSession::new();
    for name in ["BlinkTask_Mica2", "Surge_Mica2"] {
        let spec = tosapps::spec(name).unwrap();
        for config in [
            Pipeline::unsafe_baseline(),
            Pipeline::safe_flid_inline_cxprop(),
        ] {
            let fresh = BuildSession::uncached().build(&spec, &config).unwrap();
            let cached = session.build(&spec, &config).unwrap();
            let cached_again = session.build(&spec, &config).unwrap();
            assert_eq!(
                fresh.image,
                cached.image,
                "{name}/{}: cached artifact diverged from fresh compile",
                config.name()
            );
            assert_eq!(
                cached.image,
                cached_again.image,
                "{name}/{}: cache hit mutated the artifact",
                config.name()
            );
            assert_eq!(fresh.program, cached.program, "{name}/{}", config.name());
        }
    }
    // Two apps, four builds each: the frontend ran once per app.
    assert_eq!(session.frontend_compiles(), 2);
}

#[test]
fn frontend_artifact_is_shared_not_recompiled() {
    let session = BuildSession::new();
    let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
    let a = session.frontend(&spec).unwrap();
    let b = session.frontend(&spec).unwrap();
    assert_eq!(session.frontend_compiles(), 1);
    // Both handles view the same lowered program.
    assert_eq!(a.program(), b.program());
    assert!(!a.components().is_empty());
}

#[test]
fn frontend_time_attributed_to_first_build_only() {
    let session = BuildSession::new();
    let spec = tosapps::spec("BlinkTask_Mica2").unwrap();
    let first = session.build(&spec, &Pipeline::unsafe_baseline()).unwrap();
    let second = session.build(&spec, &Pipeline::safe_flid()).unwrap();
    assert!(first.metrics.pass_times.get("frontend") > Duration::ZERO);
    assert_eq!(second.metrics.pass_times.get("frontend"), Duration::ZERO);
    // Middle/back-end passes are timed on every build.
    assert!(second.metrics.pass_times.get("link") > Duration::ZERO);
}

#[test]
fn warm_builds_share_the_program_and_writes_still_copy() {
    let spec = tosapps::spec("Surge_Mica2").unwrap();
    let pipeline = Pipeline::safe_flid_inline_cxprop();
    let session = BuildSession::new();
    let cold = session.build(&spec, &pipeline).unwrap();
    let warm = session.build(&spec, &pipeline).unwrap();
    assert!(Arc::ptr_eq(&cold.program, &warm.program));

    // Without the cache every pass writes through `Arc::make_mut`; the
    // first write copies, so the session's artifact stays pristine.
    let uncached = BuildSession::uncached();
    let built = uncached.build(&spec, &pipeline).unwrap();
    let fresh = BuildSession::uncached().frontend(&spec).unwrap().program();
    assert_ne!(*built.program, fresh, "the passes rewrote the program");
    assert_eq!(uncached.frontend(&spec).unwrap().program(), fresh);
}
