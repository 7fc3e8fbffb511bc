//! Criterion benchmark: per-row inference latency of Tiny-VBF and the learned baselines
//! (the measured counterpart of the Section IV GOPs/inference-time comparison).

use criterion::{criterion_group, criterion_main, Criterion};
use neural::init::normal;
use quantize::QuantScheme;
use tiny_vbf::baselines::{Fcnn, TinyCnn};
use tiny_vbf::config::TinyVbfConfig;
use tiny_vbf::model::TinyVbf;
use tiny_vbf::quantized::QuantizedTinyVbf;

fn bench_inference(c: &mut Criterion) {
    let config = TinyVbfConfig::paper();
    let tiny_vbf = QuantizedTinyVbf::from_model(&TinyVbf::new(&config).expect("model"), QuantScheme::float());
    let mut tiny_cnn = TinyCnn::new(config.channels, 8, 1).expect("cnn");
    let mut fcnn = Fcnn::new(config.channels, 128, 1).expect("fcnn");
    let row = normal(&[config.tokens, config.channels], 0.3, 7);

    let mut group = c.benchmark_group("row_inference_128ch");
    group.sample_size(20);
    group.bench_function("tiny_vbf", |b| b.iter(|| tiny_vbf.infer_row(&row)));
    group.bench_function("tiny_cnn", |b| b.iter(|| tiny_cnn.infer_row(&row).unwrap()));
    group.bench_function("fcnn", |b| b.iter(|| fcnn.infer_row(&row).unwrap()));
    group.finish();
}

criterion_group!(benches, bench_inference);
criterion_main!(benches);
