//! Input source specifications (Table 3).

use xrbench_models::InputSource;

/// The streaming parameters of one input source
/// (`σ = (inSrcID, FPS_sensor, Linit, Jt)`, Definition 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceSpec {
    /// The sensor.
    pub source: InputSource,
    /// Streaming rate in frames per second (`FPS_sensor`).
    pub fps: f64,
    /// Maximum absolute per-frame jitter in milliseconds (`Jt`).
    pub jitter_ms: f64,
    /// Initialization latency of the stream in milliseconds (`Linit`).
    pub init_latency_ms: f64,
}

impl SourceSpec {
    /// The frame period in seconds.
    pub fn period_s(&self) -> f64 {
        1.0 / self.fps
    }
}

/// Returns the Table 3 specification for a sensor.
///
/// All image/depth streams run at 60 FPS so that multi-modal models
/// (e.g. depth refinement) see aligned inputs; audio arrives in 320 ms
/// chunks (3 FPS). Initialization latencies model sensor pipeline
/// warm-up and are the "different initial delays" of Figure 3.
pub fn source_spec(source: InputSource) -> SourceSpec {
    match source {
        InputSource::Camera => SourceSpec {
            source,
            fps: 60.0,
            jitter_ms: 0.05,
            init_latency_ms: 1.0,
        },
        InputSource::Lidar => SourceSpec {
            source,
            fps: 60.0,
            jitter_ms: 0.05,
            init_latency_ms: 1.0,
        },
        InputSource::Microphone => SourceSpec {
            source,
            fps: 3.0,
            jitter_ms: 0.1,
            init_latency_ms: 2.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_rates() {
        assert_eq!(source_spec(InputSource::Camera).fps, 60.0);
        assert_eq!(source_spec(InputSource::Lidar).fps, 60.0);
        assert_eq!(source_spec(InputSource::Microphone).fps, 3.0);
    }

    #[test]
    fn table3_jitters() {
        assert_eq!(source_spec(InputSource::Camera).jitter_ms, 0.05);
        assert_eq!(source_spec(InputSource::Lidar).jitter_ms, 0.05);
        assert_eq!(source_spec(InputSource::Microphone).jitter_ms, 0.1);
    }

    #[test]
    fn jitter_never_spans_a_frame_period() {
        // Every request stream is strictly increasing in time only
        // because 2·Jt < 1/fps; the merged stream relies on it.
        for source in InputSource::ALL {
            let spec = source_spec(source);
            assert!(2.0 * spec.jitter_ms / 1e3 < spec.period_s(), "{source:?}");
        }
    }

    #[test]
    fn periods_are_inverse_rates() {
        let cam = source_spec(InputSource::Camera);
        assert!((cam.period_s() - 1.0 / 60.0).abs() < 1e-12);
        let mic = source_spec(InputSource::Microphone);
        assert!((mic.period_s() - 1.0 / 3.0).abs() < 1e-12);
    }
}
