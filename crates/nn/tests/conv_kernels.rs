//! Property tests: the optimised conv kernels are **exactly**
//! bit-identical to the naive reference over random shapes, weights and
//! inputs.
//!
//! No ULP tolerance is needed anywhere in this suite: the blocked and
//! fused kernels only interleave *independent* accumulators and never
//! reassociate a single output's sum, so every output is required to
//! match under `f32::to_bits`. (Had a kernel reassociated — e.g. a
//! horizontal-add SIMD reduction — the affected comparisons would have
//! to document a ULP bound instead; none does.)

use prefall_nn::kernels::{
    conv1d_blocked, conv1d_reference, dense_forward, dense_reference, fused_conv_relu_maxpool,
    maxpool_forward,
};
use prefall_nn::layers::{Conv1d, Layer};
use proptest::prelude::*;

fn gen_values(len: usize, seed: u64) -> Vec<f32> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 4000) as f32 / 1000.0 - 2.0
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked conv == naive conv, bit for bit, over random shapes that
    /// exercise every combination of time/filter block tails.
    #[test]
    fn blocked_conv_is_bit_identical_to_reference(
        time in 1usize..14,
        in_ch in 1usize..7,
        filters in 1usize..10,
        kernel in 1usize..6,
        seed in 0u64..1000,
    ) {
        let kernel = kernel.min(time);
        let t_out = time - kernel + 1;
        let input = gen_values(time * in_ch, seed);
        let w = gen_values(filters * kernel * in_ch, seed ^ 0xBEEF);
        let b = gen_values(filters, seed ^ 0xCAFE);
        let mut reference = vec![0.0f32; t_out * filters];
        let mut blocked = vec![0.0f32; t_out * filters];
        conv1d_reference(&input, &w, &b, time, in_ch, filters, kernel, &mut reference);
        conv1d_blocked(&input, &w, &b, time, in_ch, filters, kernel, &mut blocked);
        prop_assert_eq!(bits(&reference), bits(&blocked));
    }

    /// Fused conv+ReLU+maxpool == the three ops composed from the
    /// reference kernels, bit for bit.
    #[test]
    fn fused_kernel_is_bit_identical_to_composition(
        time in 2usize..16,
        in_ch in 1usize..6,
        filters in 1usize..9,
        kernel in 1usize..5,
        pool in 1usize..5,
        seed in 0u64..1000,
    ) {
        let kernel = kernel.min(time);
        let t_out = time - kernel + 1;
        let pool = pool.min(t_out);
        let p_out = t_out / pool;
        let input = gen_values(time * in_ch, seed);
        let w = gen_values(filters * kernel * in_ch, seed ^ 0x1234);
        let b = gen_values(filters, seed ^ 0x5678);

        let mut conv = vec![0.0f32; t_out * filters];
        conv1d_reference(&input, &w, &b, time, in_ch, filters, kernel, &mut conv);
        let relu: Vec<f32> = conv.iter().map(|&v| v.max(0.0)).collect();
        let mut pooled = vec![0.0f32; p_out * filters];
        maxpool_forward(&relu, filters, pool, &mut pooled);

        let mut fused = vec![0.0f32; p_out * filters];
        fused_conv_relu_maxpool(&input, &w, &b, time, in_ch, filters, kernel, pool, &mut fused);
        prop_assert_eq!(bits(&pooled), bits(&fused));
    }

    /// `Conv1d::forward` (which dispatches to the blocked kernel)
    /// agrees bit for bit with the raw reference kernel on the layer's
    /// own weights — the layer-level view of the same guarantee.
    #[test]
    fn conv_layer_forward_is_bit_identical_to_reference_kernel(
        time in 2usize..12,
        in_ch in 1usize..5,
        filters in 1usize..8,
        kernel in 1usize..4,
        seed in 0u64..500,
    ) {
        let kernel = kernel.min(time);
        let t_out = time - kernel + 1;
        let mut layer = Conv1d::new(0, time, in_ch, filters, kernel).unwrap();
        let mut rng = prefall_nn::init::InitRng::new(seed);
        layer.init_weights(&mut rng);
        let input = gen_values(time * in_ch, seed ^ 0xABCD);
        let got = layer.forward(&input);

        // `visit_params` yields weights then bias, in that order.
        let mut params: Vec<Vec<f32>> = Vec::new();
        layer.visit_params(&mut |p| params.push(p.w.clone()));
        let (w, b) = (params[0].clone(), params[1].clone());
        let mut want = vec![0.0f32; t_out * filters];
        conv1d_reference(&input, &w, &b, time, in_ch, filters, kernel, &mut want);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The buffered dense kernel matches the naive per-output dot
    /// product, bit for bit.
    #[test]
    fn dense_kernel_is_bit_identical_to_naive(
        in_len in 1usize..24,
        out_len in 1usize..14,
        seed in 0u64..1000,
    ) {
        let input = gen_values(in_len, seed);
        let w = gen_values(out_len * in_len, seed ^ 0x9999);
        let b = gen_values(out_len, seed ^ 0x7777);
        let mut got = vec![0.0f32; out_len];
        dense_forward(&input, &w, &b, &mut got);
        let want: Vec<f32> = (0..out_len)
            .map(|o| {
                let mut acc = 0.0f32;
                for j in 0..in_len {
                    acc += w[o * in_len + j] * input[j];
                }
                b[o] + acc
            })
            .collect();
        prop_assert_eq!(bits(&got), bits(&want));
        let mut naive = vec![0.0f32; out_len];
        dense_reference(&input, &w, &b, &mut naive);
        prop_assert_eq!(bits(&naive), bits(&want));
    }
}
