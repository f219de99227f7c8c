//! A delegating [`SimEngine`] that times every simulation it forwards.

use std::sync::Arc;

use wsn_node::{EngineKind, FallbackEngine, SimEngine, SimOutcome, SystemConfig};

use crate::trace::{JobTrace, Layer};

/// Wraps an engine and records one leaf span per `simulate` call. Every
/// other trait method forwards to the wrapped engine, so cache keys and
/// reports are those of the wrapped engine.
#[derive(Debug)]
pub struct TimingEngine {
    inner: Arc<dyn SimEngine>,
    job: Arc<JobTrace>,
    layer: Layer,
}

impl TimingEngine {
    pub fn wrap(inner: Arc<dyn SimEngine>, job: Arc<JobTrace>) -> Arc<dyn SimEngine> {
        let layer = match inner.kind() {
            EngineKind::Full => Layer::FullSim,
            _ => Layer::Envelope,
        };
        Arc::new(TimingEngine { inner, job, layer })
    }
}

impl SimEngine for TimingEngine {
    fn kind(&self) -> EngineKind {
        self.inner.kind()
    }

    fn simulate(&self, config: &SystemConfig) -> wsn_node::Result<SimOutcome> {
        self.job.leaf(self.layer, || self.inner.simulate(config))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn cache_fingerprint(&self) -> u64 {
        self.inner.cache_fingerprint()
    }

    fn as_fallback(&self) -> Option<&FallbackEngine> {
        self.inner.as_fallback()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;
    use wsn_dse::{DseFlow, EvalKey};

    #[test]
    fn wrapped_engines_keep_their_cache_keys() {
        let tracer = Arc::new(Tracer::default());
        for plain in [
            EngineKind::Envelope.engine(),
            EngineKind::Full.engine(),
            EngineKind::Full.engine_with_dt(2e-4),
        ] {
            let wrapped = TimingEngine::wrap(Arc::clone(&plain), JobTrace::new(&tracer, 0));
            assert_eq!(wrapped.kind(), plain.kind());
            assert_eq!(wrapped.name(), plain.name());
            assert_eq!(wrapped.cache_fingerprint(), plain.cache_fingerprint());
            let coords = [4e6, 320.0, 5.0];
            assert_eq!(
                EvalKey::for_engine(wrapped.as_ref(), 42, &coords),
                EvalKey::for_engine(plain.as_ref(), 42, &coords)
            );
        }
    }

    #[test]
    fn a_flow_reports_the_same_bytes_with_and_without_the_wrapper() {
        let tracer = Arc::new(Tracer::default());
        let plain = DseFlow::paper().seed(3).jobs(2);
        let timed = DseFlow::paper()
            .seed(3)
            .jobs(2)
            .with_engine(TimingEngine::wrap(
                EngineKind::Envelope.engine(),
                JobTrace::new(&tracer, 0),
            ));
        let a = plain.run().unwrap();
        let b = timed.run().unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.cache, b.cache);
        let evals = tracer.spans().len();
        assert_eq!(evals, b.cache.misses, "one span per simulated point");
    }
}
