"""Known physics of open Kitaev chains, read off the modewise decomposition."""

import functools

import numpy as np
import pytest

from fermi_modewise import (
    Bipartition,
    ground_state_fcm,
    kitaev_hamiltonian,
    modewise_decompose,
    pair_spectrum,
    pure_mode_entanglement,
)

N = 128


@functools.lru_cache(maxsize=None)
def _mid_cut(mu, n=N):
    """The ground state and its mid-cut decomposition and pair spectrum."""
    ground = ground_state_fcm(kitaev_hamiltonian(n, mu, 1.0, 1.0))
    half = Bipartition(tuple(range(n // 2)), tuple(range(n // 2, n)))
    return ground, (modewise_decompose(ground.state, half), pair_spectrum(ground.state, half))


def _mid_cut_thetas(mu):
    """The ground state and the mid-cut angles of the full and the values-only route."""
    ground, routes = _mid_cut(mu)
    return ground, [np.array([p.theta for p in route.pairs]) for route in routes]


def test_topological_chain_has_one_majorana_edge_pair():
    # The two edge Majoranas of the topological chain (mu = 0.5, t = delta = 1)
    # form a zero mode, so the ground manifold is degenerate, and the mid cut
    # splits the edge pair into one maximally entangled pair (theta = pi/4).
    # The edge splitting is finite-size: at N = 64 the pair is 1.4e-6 off pi/4.
    ground, routes = _mid_cut_thetas(0.5)
    assert ground.degenerate
    for thetas in routes:
        assert np.sum(np.abs(thetas - np.pi / 4) <= 1e-9) == 1


def test_trivial_chain_has_no_maximally_entangled_pair():
    _, routes = _mid_cut_thetas(3.0)
    for thetas in routes:
        assert np.sum(np.abs(thetas - np.pi / 4) <= 1e-9) == 0


@pytest.mark.parametrize("mu, entropy", [(0.5, 1.0681108421216001), (3.0, 0.41594530152505826)])
def test_mid_cut_entropy_is_the_readme_scan_value(mu, entropy):
    # The cut = 64 row of the README's --scan-cut example, in bits.  Both chains
    # are gapped, so by the area law S(N/2) is flat in N: N = 256 gives the
    # same value to 1.5e-15, while N = 64 is still 8e-12 (mu = 0.5) and 1.5e-9
    # (mu = 3) off.  The value needs the pi/4 edge pair of mu = 0.5 and every
    # small kappa at its full weight.
    for n in (N, 2 * N):
        for route in _mid_cut(mu, n)[1]:
            total = pure_mode_entanglement(route).total_modes_entropy
            assert total == pytest.approx(entropy, abs=1e-12)


@pytest.mark.parametrize("mu, delta, central_charge, band", [(0.0, 0.0, 1.0, 0.05), (2.0, 1.0, 0.5, 0.025)])
def test_critical_chain_entropy_fits_its_central_charge(mu, delta, central_charge, band):
    # Critical open chains: S(l) = (c/6) log2[(2N/pi) sin(pi l/N)] + b in bits
    # (Calabrese & Cardy, J. Stat. Mech. (2004) P06002), fitted over 25 even
    # cuts l in [N/8, 7N/8].  XX (mu = 0, delta = 0) has c = 1, the critical
    # Kitaev chain (mu = 2, t = delta = 1) the Ising c = 1/2; at N = 128 the
    # fits give 1.0346 and 0.4908.
    fcm = ground_state_fcm(kitaev_hamiltonian(N, mu, 1.0, delta)).state
    cuts = np.arange(N // 8, 7 * N // 8 + 1, 4)
    entropies = [
        pure_mode_entanglement(
            pair_spectrum(fcm, Bipartition(tuple(range(cut)), tuple(range(cut, N))))
        ).total_modes_entropy
        for cut in cuts
    ]
    slope, _ = np.polyfit(np.log2(2 * N / np.pi * np.sin(np.pi * cuts / N)), entropies, 1)
    assert abs(6 * slope - central_charge) <= band
