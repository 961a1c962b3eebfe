"""Shared fixtures and independent oracle helpers.

Oracles here deliberately re-derive results through a different route than
the library (dense stamp loops, closed-form quadratics, generic circle
intersection) so the tests do not just re-run the implementation.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from tpflow import fpi
from tpflow.network import Branch, NetworkModel, SlackSpec
from tpflow.synth import GenSpec, build_network

# property tests draw the same examples on every run, a fixed number of them
settings.register_profile("tpflow", derandomize=True, max_examples=200,
                          deadline=None, database=None)
settings.load_profile("tpflow")


def dense_stamp_oracle(branches, n_buses):
    """Brute-force full admittance: sum of per-branch 2x2 stamps, dense."""
    full = np.zeros((n_buses, n_buses), dtype=complex)
    for br in branches:
        y = 1.0 / complex(br.r, br.x)
        h = 1j * br.b_shunt / 2.0
        i, j = br.from_bus, br.to_bus
        full[i, i] += y + h
        full[j, j] += y + h
        full[i, j] -= y
        full[j, i] -= y
    return full


def two_bus_roots_oracle(z_s, v0, s):
    """Closed-form voltages for source z_s, slack magnitude v0, load s.

    Independent derivation: the quadratic in y = |v|^2 is
    y^2 + (2 Re(z_s s*) - v0^2) y + |z_s s|^2 = 0 and v = (y + conj(z_s) s)/v0.
    Returns roots sorted by descending magnitude.
    """
    if s == 0:
        return [complex(v0)]
    b = 2 * (z_s * np.conj(s)).real - v0**2
    c = abs(z_s * s) ** 2
    disc = b * b - 4 * c
    if disc < 0:
        return []
    roots = []
    for sign in (+1, -1):
        y = (-b + sign * np.sqrt(disc)) / 2
        if y > 0:
            roots.append((y + np.conj(z_s) * s) / v0)
    return sorted(set(roots), key=abs, reverse=True)


def two_bus_model(z_s, v0=1.0):
    branch = Branch(0, 1, z_s.real if isinstance(z_s, complex) else z_s,
                    z_s.imag if isinstance(z_s, complex) else 0.0)
    return NetworkModel.from_branches([branch], 2, slack=SlackSpec(complex(v0)))


def phase_coupled_model(rng, n=6):
    """Asymmetric, fully coupled ``y_dd`` (as for bus-phase systems) whose
    no-load state is the flat start; entries are drawn from ``rng``."""
    y_dd = rng.normal(0, 1, (n, n)) + 1j * rng.normal(0, 1, (n, n))
    np.fill_diagonal(y_dd, 0)
    np.fill_diagonal(y_dd, np.abs(y_dd).sum(axis=1) + 20.0)
    y_ds = -(y_dd @ np.ones(n))[:, None]
    return NetworkModel(y_dd, y_ds)


def feasible_batch(model, tau, seed, scale=1.0):
    """Seeded feasible load batch for a model, via the synth sampler."""
    from tpflow.synth import gen_scenarios

    spec = GenSpec(n_buses=model.n_demand + 1, seed=seed, load_scale=scale)
    return gen_scenarios(model, tau, spec)


@pytest.fixture
def factorizations(monkeypatch):
    """Spy on :func:`tpflow.fpi.factorize`; its ``call_count`` counts the LUs.

    The spy replaces the function in every ``tpflow`` module that binds it,
    matched by identity, so it sees the calls from ``fpi_solve``, the sparse
    batch and ``validate`` (which imports it from ``fpi`` when called).
    ``import tpflow`` has loaded every module that binds it.
    """
    original = fpi.factorize
    spy = mock.Mock(wraps=original)
    for name, module in list(sys.modules.items()):
        if name == "tpflow" or name.startswith("tpflow."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, spy)
    return spy


@pytest.fixture(scope="session")
def nine_bus_model():
    return build_network(GenSpec(n_buses=9, seed=42))


@pytest.fixture(scope="session")
def hundred_bus_model():
    return build_network(GenSpec(n_buses=101, seed=7))
