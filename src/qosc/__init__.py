"""Exact computer algebra for q-oscillator modules of generalized quantum
groups of affine type D: module actions, truncation functors, normalized
R matrices with spectral decompositions, and fusion."""
