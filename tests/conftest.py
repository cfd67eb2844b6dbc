"""Shared fixtures: deliberately broken building blocks for mutation tests."""

import pytest

from gptlab import hadamard


@pytest.fixture
def skewed_rotation(monkeypatch):
    """Give T_5 at N = 3 a diagonal entry of 1/2 instead of +-1."""
    original = hadamard.local_transformation

    def skewed(label, n_bits):
        t = original(label, n_bits)
        if (label, n_bits) != (5, 3):
            return t
        matrix = t.matrix.copy()
        matrix[2, 2] = 0.5
        return hadamard.LocalTransformation(matrix=matrix, label=label, n_bits=n_bits)

    monkeypatch.setattr(hadamard, "local_transformation", skewed)


@pytest.fixture
def tripled_bell_effect(monkeypatch):
    """Scale the Bell effect of label 2 at N = 3 by 3."""
    original = hadamard.entangled_effect

    def tripled(label, n_bits):
        e = original(label, n_bits)
        if (label, n_bits) != (2, 3):
            return e
        return hadamard.BipartiteEffect(3.0 * e.matrix)

    monkeypatch.setattr(hadamard, "entangled_effect", tripled)
