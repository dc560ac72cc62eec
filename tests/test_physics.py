"""Known physics of open Kitaev chains, read off the modewise decomposition."""

import numpy as np

from fermi_modewise import Bipartition, ground_state_fcm, kitaev_hamiltonian, modewise_decompose

N = 128


def _mid_cut_thetas(mu):
    ground = ground_state_fcm(kitaev_hamiltonian(N, mu, 1.0, 1.0))
    half = Bipartition(tuple(range(N // 2)), tuple(range(N // 2, N)))
    thetas = np.array([p.theta for p in modewise_decompose(ground.fcm, half).pairs])
    return ground, thetas


def test_topological_chain_has_one_majorana_edge_pair():
    # The two edge Majoranas of the topological chain (mu = 0.5, t = delta = 1)
    # form a zero mode, so the ground manifold is degenerate, and the mid cut
    # splits the edge pair into one maximally entangled pair (theta = pi/4).
    # The edge splitting is finite-size: at N = 64 the pair is 1.4e-6 off pi/4.
    ground, thetas = _mid_cut_thetas(0.5)
    assert ground.degenerate
    assert np.sum(np.abs(thetas - np.pi / 4) <= 1e-9) == 1


def test_trivial_chain_has_no_maximally_entangled_pair():
    _, thetas = _mid_cut_thetas(3.0)
    assert np.sum(np.abs(thetas - np.pi / 4) <= 1e-9) == 0
