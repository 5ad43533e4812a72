"""Exact Markov chains from convolutions of graded projections on
combinatorial Hopf algebras: card shuffles on the word algebra and
vertex-removal chains on rooted forests, with rational-arithmetic
transition matrices, spectra, stationary distributions, eigenvectors and
seeded simulation."""

__version__ = "0.1.0"
