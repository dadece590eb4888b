//! Compute-substrate microbenchmarks: layernorm, softmax and a whole
//! transformer block. GEMM is timed by the `bench_matmul` bin at the
//! shapes the model runs.

use criterion::{criterion_group, criterion_main, Criterion};
use zero_model::{BlockDims, Layout, ModelConfig};
use zero_tensor::init::normal_init;
use zero_tensor::ops::norm::layernorm_forward;
use zero_tensor::ops::softmax::causal_softmax_forward;

fn bench_layernorm(c: &mut Criterion) {
    let (rows, dim) = (512usize, 256usize);
    let mut x = vec![0.0; rows * dim];
    normal_init(&mut x, 1.0, 3);
    let gamma = vec![1.0; dim];
    let beta = vec![0.0; dim];
    let mut y = vec![0.0; rows * dim];
    let mut mean = vec![0.0; rows];
    let mut rstd = vec![0.0; rows];
    c.bench_function("layernorm_512x256", |b| {
        b.iter(|| {
            layernorm_forward(&x, &gamma, &beta, &mut y, &mut mean, &mut rstd, rows, dim, 1e-5)
        });
    });
}

fn bench_causal_softmax(c: &mut Criterion) {
    let (maps, seq) = (16usize, 64usize);
    let mut x = vec![0.0; maps * seq * seq];
    normal_init(&mut x, 1.0, 4);
    let mut y = vec![0.0; maps * seq * seq];
    c.bench_function("causal_softmax_16maps_64seq", |b| {
        b.iter(|| causal_softmax_forward(&x, &mut y, maps, seq));
    });
}

fn bench_transformer_block(c: &mut Criterion) {
    let cfg = ModelConfig {
        vocab: 64,
        seq: 32,
        hidden: 128,
        layers: 1,
        heads: 8,
    };
    let layout = Layout::build(&cfg);
    let mut params = vec![0.0; cfg.block_params()];
    normal_init(&mut params, 0.02, 5);
    let off = layout.block_offsets(0);
    for v in &mut params[off.ln1_g.clone()] {
        *v = 1.0;
    }
    for v in &mut params[off.ln2_g.clone()] {
        *v = 1.0;
    }
    let dims = BlockDims {
        hidden: cfg.hidden,
        local_heads: cfg.heads,
        head_dim: cfg.head_dim(),
        ffn: 4 * cfg.hidden,
        batch: 4,
        seq: cfg.seq,
    };
    let t = dims.rows();
    let mut x = vec![0.0; t * cfg.hidden];
    normal_init(&mut x, 1.0, 6);
    let mut y = vec![0.0; t * cfg.hidden];
    let mut g = c.benchmark_group("transformer_block");
    g.bench_function("forward", |b| {
        b.iter(|| {
            zero_model::block::block_forward(&dims, &params, &off, &x, &mut y, &mut |_| {})
        });
    });
    g.bench_function("forward_backward", |b| {
        let dy = x.clone();
        let mut dx = vec![0.0; t * cfg.hidden];
        let mut grads = vec![0.0; params.len()];
        b.iter(|| {
            let saved =
                zero_model::block::block_forward(&dims, &params, &off, &x, &mut y, &mut |_| {});
            zero_model::block::block_backward(
                &dims, &params, &off, &saved, &dy, &mut dx, &mut grads, &mut |_| {},
            );
        });
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_layernorm, bench_causal_softmax, bench_transformer_block
);
criterion_main!(benches);
