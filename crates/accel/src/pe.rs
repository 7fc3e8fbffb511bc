//! Processing-element and non-linear-unit latency models.
//!
//! A processing element multiplies 16 operand pairs in parallel and reduces them through
//! a binary adder tree (Fig. 8(b)): one cycle for the multipliers plus `log2(16) = 4`
//! pipeline stages for the tree. Dot products longer than 16 are folded across multiple
//! passes, which issue back to back once the pipeline is full.

use crate::MACS_PER_PE;

/// Latency model of one processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcessingElement {
    /// Number of parallel multipliers (16 in the paper).
    pub lanes: usize,
    /// Adder-tree depth in pipeline stages.
    pub adder_tree_depth: usize,
}

impl ProcessingElement {
    /// The paper's PE: 16 multiplier lanes, 4-level adder tree.
    pub fn paper() -> Self {
        Self { lanes: MACS_PER_PE, adder_tree_depth: (MACS_PER_PE as f64).log2() as usize }
    }

    /// Throughput-optimal cycles for `count` independent dot products of `length`
    /// elements executed back to back on this PE (pipelined across passes).
    pub fn batched_dot_product_cycles(&self, count: usize, length: usize) -> u64 {
        if count == 0 || length == 0 {
            return 0;
        }
        let passes = length.div_ceil(self.lanes) as u64;
        // Pipelined: one pass issues per cycle once the pipeline is full.
        passes * count as u64 + self.adder_tree_depth as u64
    }
}

impl Default for ProcessingElement {
    fn default() -> Self {
        Self::paper()
    }
}

/// Latency (cycles) of the non-linear units used by the accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NonLinearUnit {
    /// Cycles per ReLU element.
    pub relu: u64,
    /// Cycles per exponential evaluation inside the softmax.
    pub exp: u64,
    /// Cycles per division.
    pub div: u64,
    /// Cycles per square root (used by layer normalisation).
    pub sqrt: u64,
}

impl NonLinearUnit {
    /// Latencies representative of pipelined fixed-point implementations on the ZCU104.
    pub fn paper() -> Self {
        Self { relu: 1, exp: 4, div: 8, sqrt: 8 }
    }

    /// Cycles for a row-wise softmax over `tokens` entries on a pipelined unit using the
    /// online (single-pass) formulation: the exponential and division stages each accept
    /// one element per cycle and are chained, so the cost is the element count plus the
    /// pipeline fill latency of both stages.
    pub fn softmax_cycles(&self, tokens: usize) -> u64 {
        if tokens == 0 {
            return 0;
        }
        tokens as u64 + self.exp + self.div
    }

    /// Cycles for a layer-norm over `features` entries: mean, variance, one sqrt and a
    /// normalisation multiply-add per entry.
    pub fn layernorm_cycles(&self, features: usize) -> u64 {
        let n = features as u64;
        2 * n + self.sqrt + 2 * n
    }
}

impl Default for NonLinearUnit {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pe_dimensions() {
        let pe = ProcessingElement::paper();
        assert_eq!(pe.lanes, 16);
        assert_eq!(pe.adder_tree_depth, 4);
        assert_eq!(pe, ProcessingElement::default());
    }

    #[test]
    fn batched_execution_amortises_the_tree_latency() {
        let pe = ProcessingElement::paper();
        // Ten one-pass dot products back to back, unpipelined: 10 × (1 + 4).
        let sequential = 10 * (1 + pe.adder_tree_depth as u64);
        let batched = pe.batched_dot_product_cycles(10, 16);
        assert!(batched < sequential, "batched {batched} sequential {sequential}");
        assert_eq!(pe.batched_dot_product_cycles(0, 16), 0);
    }

    #[test]
    fn nonlinear_unit_costs() {
        let nl = NonLinearUnit::paper();
        assert!(nl.softmax_cycles(128) > nl.softmax_cycles(16));
        assert!(nl.layernorm_cycles(8) > 0);
        assert_eq!(nl.softmax_cycles(0), 0);
    }
}
