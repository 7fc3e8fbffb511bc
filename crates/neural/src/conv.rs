//! 2-D convolution (for the Tiny-CNN baseline).
//!
//! The Tiny-CNN beamformer \[7\] predicts per-pixel apodization weights from a ToF-corrected
//! region with a small stack of convolutions. This layer implements "same"-padded,
//! stride-1 2-D convolution over a single `(height, width, in_channels)` sample stored
//! as a 3-D [`Tensor`].
//!
//! The forward and backward passes are lowered onto the blocked matmul via
//! **im2col**: the padded receptive field of every output pixel becomes one row
//! of a `(h·w, k·k·c_in)` matrix, turning the convolution into a single matrix
//! product with the `(k·k·c_in, c_out)` weight matrix. The scalar
//! sample-by-sample implementation is kept as [`Conv2d::infer_direct`] for the
//! equivalence tests and benchmarks.

use crate::init::he_uniform;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A stride-1, zero-padded ("same") 2-D convolution.
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    cached_cols: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with a square `kernel × kernel` filter.
    ///
    /// # Panics
    ///
    /// Panics when any dimension is zero or the kernel size is even (odd kernels keep
    /// the "same" padding symmetric).
    pub fn new(in_channels: usize, out_channels: usize, kernel: usize, seed: u64) -> Self {
        assert!(in_channels > 0 && out_channels > 0 && kernel > 0, "Conv2d dimensions must be nonzero");
        assert!(kernel % 2 == 1, "Conv2d kernel size must be odd");
        let fan_in = in_channels * kernel * kernel;
        let weight = he_uniform(fan_in, out_channels, seed);
        Self {
            in_channels,
            out_channels,
            kernel,
            weight: Param::new(weight),
            bias: Param::new(Tensor::zeros(&[1, out_channels])),
            cached_input: None,
            cached_cols: None,
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    #[inline]
    fn weight_at(&self, ky: usize, kx: usize, ci: usize, co: usize) -> f32 {
        let row = (ky * self.kernel + kx) * self.in_channels + ci;
        self.weight.value.at(row, co)
    }

    /// Lowers the "same"-padded input into its im2col matrix: row `y·w + x`
    /// holds the `kernel²·c_in` receptive-field samples of output pixel
    /// `(y, x)`, with out-of-image taps left at zero.
    fn im2col(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        let (h, w, c) = (shape[0], shape[1], shape[2]);
        let kernel = self.kernel;
        let pad = (kernel / 2) as isize;
        let patch = kernel * kernel * c;
        let mut cols = Tensor::zeros(&[h * w, patch]);
        let in_data = input.as_slice();
        // Each im2col row depends only on its own pixel coordinates, so rows can
        // be filled by disjoint workers.
        let threads = if h * w * patch < (1 << 16) { 1 } else { runtime::default_threads() };
        runtime::par_map_rows(cols.as_mut_slice(), patch, threads, |first_pixel, block| {
            for (local, row) in block.chunks_mut(patch).enumerate() {
                let pixel = first_pixel + local;
                let (y, x) = (pixel / w, pixel % w);
                for ky in 0..kernel {
                    let iy = y as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kernel {
                        let ix = x as isize + kx as isize - pad;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let src = ((iy as usize) * w + ix as usize) * c;
                        let dst = (ky * kernel + kx) * c;
                        row[dst..dst + c].copy_from_slice(&in_data[src..src + c]);
                    }
                }
            }
        });
        cols
    }

    /// Scatter-adds an im2col-layout gradient matrix (`h·w × kernel²·c_in`)
    /// back onto input coordinates (the adjoint of [`Conv2d::im2col`]).
    fn col2im(&self, cols_grad: &Tensor, h: usize, w: usize) -> Tensor {
        let c = self.in_channels;
        let kernel = self.kernel;
        let pad = (kernel / 2) as isize;
        let patch = kernel * kernel * c;
        let mut grad_input = Tensor::zeros(&[h, w, c]);
        let g = cols_grad.as_slice();
        let out = grad_input.as_mut_slice();
        for pixel in 0..h * w {
            let (y, x) = (pixel / w, pixel % w);
            let row = &g[pixel * patch..(pixel + 1) * patch];
            for ky in 0..kernel {
                let iy = y as isize + ky as isize - pad;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..kernel {
                    let ix = x as isize + kx as isize - pad;
                    if ix < 0 || ix >= w as isize {
                        continue;
                    }
                    let dst = ((iy as usize) * w + ix as usize) * c;
                    let src = (ky * kernel + kx) * c;
                    for ci in 0..c {
                        out[dst + ci] += row[src + ci];
                    }
                }
            }
        }
        grad_input
    }

    fn compute(&self, input: &Tensor) -> (Tensor, Tensor) {
        let shape = input.shape();
        let (h, w) = (shape[0], shape[1]);
        assert_eq!(shape[2], self.in_channels, "Conv2d input channel mismatch");
        let cols = self.im2col(input);
        let out = cols
            .matmul(&self.weight.value)
            .add_row_broadcast(&self.bias.value)
            .reshape(&[h, w, self.out_channels])
            .expect("conv output reshape cannot fail");
        (out, cols)
    }

    /// Reference sample-by-sample convolution (the pre-im2col implementation),
    /// kept for equivalence tests and before/after benchmarks.
    pub fn infer_direct(&self, input: &Tensor) -> Tensor {
        let shape = input.shape();
        let (h, w, c) = (shape[0], shape[1], shape[2]);
        assert_eq!(c, self.in_channels, "Conv2d input channel mismatch");
        let pad = (self.kernel / 2) as isize;
        let mut out = Tensor::zeros(&[h, w, self.out_channels]);
        let in_data = input.as_slice();
        let out_data = out.as_mut_slice();
        for y in 0..h {
            for x in 0..w {
                for co in 0..self.out_channels {
                    let mut acc = self.bias.value.at(0, co);
                    for ky in 0..self.kernel {
                        let iy = y as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..self.kernel {
                            let ix = x as isize + kx as isize - pad;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            let base = ((iy as usize) * w + ix as usize) * c;
                            for ci in 0..c {
                                acc += in_data[base + ci] * self.weight_at(ky, kx, ci, co);
                            }
                        }
                    }
                    out_data[(y * w + x) * self.out_channels + co] = acc;
                }
            }
        }
        out
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "Conv2d expects a (h, w, c) tensor");
        self.cached_input = Some(input.clone());
        let (out, cols) = self.compute(input);
        self.cached_cols = Some(cols);
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self.cached_input.as_ref().expect("Conv2d::backward called before forward");
        let cols = self.cached_cols.as_ref().expect("Conv2d::backward called before forward");
        let shape = input.shape();
        let (h, w) = (shape[0], shape[1]);
        assert_eq!(grad_output.shape(), &[h, w, self.out_channels], "Conv2d backward shape mismatch");

        // With y = im2col(x) · W + b: dW = im2col(x)ᵀ · dy, db = Σ_pixels dy,
        // dx = col2im(dy · Wᵀ).
        let gout = grad_output
            .reshape(&[h * w, self.out_channels])
            .expect("conv gradient reshape cannot fail");
        let grad_weight = cols.transpose().matmul(&gout);
        let grad_bias = gout.sum_rows();
        let grad_cols = gout.matmul(&self.weight.value.transpose());
        let grad_input = self.col2im(&grad_cols, h, w);

        self.weight.grad = self.weight.grad.add(&grad_weight);
        self.bias.grad = self.bias.grad.add(&grad_bias);
        grad_input
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn infer(&mut self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "Conv2d expects a (h, w, c) tensor");
        self.compute(input).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_gradients;

    #[test]
    fn output_shape_preserves_spatial_dims() {
        let mut conv = Conv2d::new(3, 5, 3, 0);
        let x = crate::init::normal(&[6, 4, 3], 1.0, 1);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[6, 4, 5]);
        assert_eq!(conv.num_weights(), 3 * 3 * 3 * 5 + 5);
        assert_eq!(conv.in_channels(), 3);
        assert_eq!(conv.out_channels(), 5);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 kernel with identity weights copies the single channel through.
        let mut conv = Conv2d::new(1, 1, 1, 0);
        {
            let mut params = conv.params_mut();
            params[0].value = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
            params[1].value = Tensor::zeros(&[1, 1]);
        }
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2, 1]).unwrap();
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
        assert_eq!(conv.infer(&x).as_slice(), x.as_slice());
    }

    #[test]
    fn averaging_kernel_smooths() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        {
            let mut params = conv.params_mut();
            params[0].value = Tensor::full(&[9, 1], 1.0 / 9.0);
            params[1].value = Tensor::zeros(&[1, 1]);
        }
        // An impulse in the middle of a 3x3 image spreads to all 9 outputs.
        let mut x = Tensor::zeros(&[3, 3, 1]);
        x.as_mut_slice()[4] = 9.0;
        let y = conv.forward(&x);
        for &v in y.as_slice() {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn gradients_match_numerical_estimates() {
        let conv = Conv2d::new(2, 3, 3, 4);
        let input = crate::init::normal(&[4, 3, 2], 0.7, 9);
        check_layer_gradients(&mut { conv }, &input, 1e-2, 3e-2);
    }

    #[test]
    fn im2col_forward_matches_direct_convolution() {
        for (h, w, cin, cout, k, seed) in
            [(5, 4, 2, 3, 3, 1), (3, 7, 1, 2, 5, 2), (6, 6, 3, 4, 1, 3), (1, 1, 2, 2, 3, 4), (9, 2, 4, 1, 3, 5)]
        {
            let mut conv = Conv2d::new(cin, cout, k, seed);
            let x = crate::init::normal(&[h, w, cin], 1.0, seed + 10);
            let fast = conv.forward(&x);
            let direct = conv.infer_direct(&x);
            assert_eq!(fast.shape(), direct.shape());
            for (a, b) in fast.as_slice().iter().zip(direct.as_slice()) {
                assert!((a - b).abs() <= 1e-5 * b.abs().max(1.0), "h{h} w{w} cin{cin} cout{cout} k{k}: {a} vs {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "kernel size must be odd")]
    fn even_kernel_panics() {
        let _ = Conv2d::new(1, 1, 2, 0);
    }

    #[test]
    #[should_panic(expected = "expects a (h, w, c) tensor")]
    fn wrong_rank_panics() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        let _ = conv.forward(&Tensor::zeros(&[4, 4]));
    }
}
