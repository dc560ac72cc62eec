"""The four benchmark workloads.

Each workload builds its program-side inputs in ``setup`` (which also runs
one warm-up operation per distinct size), exposes one round of operations as
``cases`` in a fixed order, runs one operation with ``run`` and checks its
output against ``reference`` in ``check``.  ``run`` is the only timed part.
``run`` returns ``(ok, output)``: ``ok`` is False for an operation that
failed the way the workload allows; any exception it raises is a fault.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from typing import NamedTuple

import numpy as np

import fermi_modewise as fm
import fermi_modewise.cli as fm_cli
import reference as ref

TOL = 1e-8  # reconstruction, entropy, kappa, spectrum, energy, covariance
FIDELITY_TOL = 1e-7


class CheckFailure(Exception):
    """An output of the program disagrees with its reference."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailure(message)


def call_cli(argv) -> tuple[int, str, str]:
    """Run ``cli_main`` in-process; looked up at call time so tracing sees it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fm_cli.cli_main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def one_based(modes) -> str:
    return ",".join(str(int(m) + 1) for m in modes)


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator of a run's inputs; any integer seed, a negative one too."""
    return np.random.default_rng(seed % 2**64)


def near_half(n: int) -> int:
    """Side A of a near-half cut: one mode short of N/2.

    On an exact half cut of a random state the cross block is square and its
    smallest pair coupling kappa comes near 0 on some seeds; below about 1.4e-4
    the pair is taken for a decoupled class and the decomposition fails (the
    fault of ROADMAP item 1). With two modes more on B than on A the smallest
    kappa stays far from 0 (at least 0.015 over 3000 states at N = 60).
    """
    return n // 2 - 1


def seeded_split(rng: np.random.Generator, n: int, size: int):
    """A random ``size``-mode side A (in random order) and the rest as B."""
    order = rng.permutation(n)
    return tuple(int(i) for i in order[:size]), tuple(int(i) for i in sorted(order[size:]))


def check_decomposition(matrix, a_modes, b_modes, transform_a, transform_b, pairs, res_a, res_b, l0):
    """Block form, orthogonality, kappas and lambda0 of one decomposition."""
    error, orth = ref.block_form_error(matrix, a_modes, b_modes, transform_a, transform_b,
                                       pairs, res_a, res_b)
    expect(error <= TOL, f"reconstruction error {error:.3e} > {TOL}")
    expect(orth <= TOL, f"local transforms not orthogonal: {orth:.3e}")
    kappas_ref = ref.cross_kappas(matrix, a_modes, b_modes)
    kappas = np.zeros(len(kappas_ref))
    got = sorted((p[3] for p in pairs), reverse=True)
    expect(len(got) <= len(kappas), f"{len(got)} pairs for {len(kappas)} pair slots")
    kappas[: len(got)] = got
    worst = float(np.max(np.abs(kappas - kappas_ref))) if kappas.size else 0.0
    expect(worst <= TOL, f"pair kappas differ from cross-block singular values by {worst:.3e}")
    l0_ref = ref.lambda0(matrix)
    expect(abs(l0 - l0_ref) <= TOL, f"lambda0 {l0!r} against reference {l0_ref!r}")
    return kappas_ref, l0_ref


def check_ppt(flags, kappas, l0):
    """PPT verdicts against kappa > (1 - l0^2)/2; kappas within TOL of it are not judged."""
    threshold = ref.ppt_threshold(l0)
    clear = np.abs(kappas - threshold) > TOL
    expected = int(np.sum(kappas[clear] > threshold))
    ambiguous = int(np.sum(~clear))
    got = int(sum(flags))
    expect(expected <= got <= expected + ambiguous,
           f"{got} NPT pairs, reference {expected} (+{ambiguous} at the threshold)")


def pairs_of(decomp):
    return (
        [(p.a_mode, p.b_mode, p.lam, p.kappa) for p in decomp.pairs],
        [(r.mode, r.lam) for r in decomp.residual_a],
        [(r.mode, r.lam) for r in decomp.residual_b],
    )


class RandomCase(NamedTuple):
    label: str
    n: int
    cut: str
    state: object
    partition: object
    pure: bool


class DecomposeRandom:
    """Library calls on seeded random pure and isotropic states."""

    SIZES = (50, 100, 200, 400)
    KINDS = (("pure", 1.0), ("iso-0.3", 0.3), ("iso-0.9", 0.9))
    CUTS = ("near-half", "random-near-half", "lopsided")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases: list[RandomCase] = []

    def setup(self):
        self.cases = []  # a repeated set-up frees the previous inputs first
        rng = seeded_rng(self.seed)
        cases = []
        for i, n in enumerate(self.SIZES):
            for k, (kind, l0) in enumerate(self.KINDS):
                state_seed = int(rng.integers(2**32))
                if kind == "pure":
                    state = fm.random_pure_fcm(n, state_seed)
                else:
                    state = fm.isotropic_fcm(n, l0, state_seed)
                # Latin square: across the sizes every kind meets every cut.
                cut = self.CUTS[(k + i) % 3]
                if cut == "near-half":
                    a, b = tuple(range(near_half(n))), tuple(range(near_half(n), n))
                else:
                    a, b = seeded_split(rng, n, near_half(n) if cut == "random-near-half" else n // 10)
                cases.append(RandomCase(f"{kind} N={n} {cut}", n, cut, state,
                                        fm.Bipartition(a, b), kind == "pure"))
        self.cases = cases
        for n in self.SIZES:
            self.run(next(c for c in cases if c.n == n and c.cut == "lopsided"))

    def run(self, case: RandomCase):
        decomp = fm.modewise_decompose(case.state, case.partition)
        residual = fm.reconstruction_residual(decomp, case.state)
        if case.pure:
            report = fm.pure_mode_entanglement(decomp)
        else:
            report = fm.isotropic_separability(decomp)
        return True, (decomp, residual, report)

    def check(self, case: RandomCase, output):
        decomp, residual, report = output
        expect(residual <= TOL, f"reported reconstruction residual {residual:.3e}")
        part = case.partition
        kappas, l0 = check_decomposition(case.state.matrix, part.a_modes, part.b_modes,
                                         decomp.transform_a, decomp.transform_b,
                                         *pairs_of(decomp), decomp.lambda0)
        if case.pure:
            entropy = ref.pure_entropy(case.state.matrix, part.a_modes, part.b_modes)
            diff = abs(report.total_modes_entropy - entropy)
            expect(diff <= TOL, f"entropy differs from the cross-block reference by {diff:.3e}")
        else:
            check_ppt(report.pair_npt_flags, kappas, l0)


class CliCase(NamedTuple):
    label: str
    argv: tuple
    step: str
    state: str  # which generated state file the step reads or writes
    l0: float
    partition: tuple  # (a_modes, b_modes), 0-based


class CliPipeline:
    """generate | williamson | decompose | entropy through in-process cli_main calls."""

    SIZES = (100, 200)
    KINDS = (("pure", 1.0), ("iso-0.9", 0.9))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.cases: list[CliCase] = []
        self.matrices: dict = {}

    def _path(self, name: str) -> str:
        return str(self.dir / name)

    def setup(self):
        self.cases, self.matrices = [], {}
        rng = seeded_rng(self.seed)
        cases = []
        for n in self.SIZES:
            for kind, l0 in self.KINDS:
                state = f"{kind}-{n}.json"
                a, b = seeded_split(rng, n, near_half(n))
                text = f"{one_based(a)};{one_based(b)}"
                gen = ["generate", "--n", n, "--seed", int(rng.integers(2**31)), "--out", self._path(state)]
                gen[1:1] = ["--kind", "random-pure"] if kind == "pure" else [
                    "--kind", "random-isotropic", "--lambda0", l0]
                steps = [
                    ("generate", gen),
                    ("williamson", ["williamson", "--input", self._path(state),
                                    "--out-spectrum", self._path("spectrum.csv"),
                                    "--out-transform", self._path("orthogonal.json")]),
                    ("decompose", ["decompose", "--input", self._path(state), "--partition", text,
                                   "--out", self._path("decomposition.json")]),
                ]
                if kind == "pure":
                    steps.append(("entropy", ["entropy", "--input", self._path(state),
                                              "--partition", text, "--json"]))
                for step, argv in steps:
                    cases.append(CliCase(f"{step} {kind} N={n}", tuple(argv), step, state, l0, (a, b)))
        self.cases = cases
        for n in self.SIZES:
            for case in cases:
                if case.label in (f"generate pure N={n}", f"decompose pure N={n}"):
                    self.run(case)

    def run(self, case: CliCase):
        code, out, err = call_cli(case.argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return True, out

    def written(self, case: CliCase) -> list[str]:
        """JSON files the case's command writes."""
        names = {"generate": [case.state], "williamson": ["orthogonal.json"],
                 "decompose": ["decomposition.json"]}.get(case.step, [])
        return [self._path(name) for name in names]

    def check(self, case: CliCase, output: str):
        a, b = case.partition
        if case.step == "generate":
            data = json.loads(Path(self._path(case.state)).read_text())
            m = np.asarray(data["matrix"], dtype=float)
            expect(m.shape == (2 * data["n_modes"],) * 2, f"matrix shape {m.shape}")
            expect(float(np.max(np.abs(m + m.T))) <= TOL, "generated matrix not antisymmetric")
            dev = float(np.max(np.abs(m @ m + case.l0**2 * np.eye(m.shape[0]))))
            expect(dev <= TOL, f"generated state has max|M^2 + l0^2| = {dev:.3e}")
            self.matrices[case.state] = m
            return
        m = self.matrices[case.state]
        if case.step == "williamson":
            lines = Path(self._path("spectrum.csv")).read_text().split()
            spectrum = np.array([float(line.split(",")[1]) for line in lines[1:]])
            diff = float(np.max(np.abs(spectrum - ref.williamson_spectrum(m))))
            expect(diff <= TOL, f"Williamson spectrum differs from sqrt(eig(-M^2)) by {diff:.3e}")
            o = np.asarray(json.loads(Path(self._path("orthogonal.json")).read_text())["orthogonal"])
            canon = np.kron(np.diag(spectrum), ref.J2)
            diff = float(np.max(np.abs(o @ m @ o.T - canon)))
            expect(diff <= TOL, f"O M O^T differs from the canonical form by {diff:.3e}")
            diff = float(np.max(np.abs(o @ o.T - np.eye(o.shape[0]))))
            expect(diff <= TOL, f"Williamson transform not orthogonal: {diff:.3e}")
        elif case.step == "decompose":
            data = json.loads(Path(self._path("decomposition.json")).read_text())
            expect(data["reconstruction_residual"] <= TOL, "reported reconstruction residual")
            expect(data["partition"]["a_modes"] == [i + 1 for i in a], "partition A echoed wrongly")
            pairs = [(p["a_mode"] - 1, p["b_mode"] - 1, p["lambda"], p["kappa"]) for p in data["pairs"]]
            res_a = [(r["mode"] - 1, r["lambda"]) for r in data["residual_a"]]
            res_b = [(r["mode"] - 1, r["lambda"]) for r in data["residual_b"]]
            check_decomposition(m, a, b, np.asarray(data["transform_a"]), np.asarray(data["transform_b"]),
                                pairs, res_a, res_b, data["lambda0"])
        elif case.step == "entropy":
            total = json.loads(output)["total_modes_entropy"]
            diff = abs(total - ref.pure_entropy(m, a, b))
            expect(diff <= TOL, f"entropy differs from the cross-block reference by {diff:.3e}")


class ChainCase(NamedTuple):
    label: str
    chain: tuple  # (name, n, mu, delta)
    cut: int
    argv: tuple


class ChainCuts:
    """One-value ``sweep`` rows over open Kitaev chains (t = 1) and cut positions.

    The inputs are fixed physics and do not depend on the seed: the cases that
    fail today fail on every run, so the failed share is the same in every run.
    """

    CHAINS = (("topological", 0.5, 1.0), ("critical", 2.0, 1.0), ("trivial", 3.0, 1.0),
              ("anisotropic", 1.0, 0.5), ("xx", 0.0, 0.0))
    SIZES = (16, 64, 128, 256)

    def __init__(self, seed: int, workdir: Path):
        self.out = str(workdir / "sweep.csv")
        self.cases: list[ChainCase] = []
        self._reference: dict = {}

    def setup(self):
        cases = []
        for name, mu, delta in self.CHAINS:
            for n in self.SIZES:
                for cut in (1, n // 4, n // 2, n - 1):
                    argv = ("sweep", "--kind", "kitaev", "--n", str(n), "--mu", repr(mu), "--t", "1",
                            "--delta", repr(delta), "--param", "mu", "--values", repr(mu),
                            "--cut", str(cut), "--out", self.out)
                    cases.append(ChainCase(f"{name} N={n} cut={cut}", (name, n, mu, delta), cut, argv))
        self.cases = cases
        for n in self.SIZES:
            self.run(next(c for c in cases if c.chain[1] == n and c.cut == 1))

    def run(self, case: ChainCase):
        code, _, err = call_cli(case.argv)
        if code == 0:
            return True, Path(self.out).read_text()
        return False, (code, err)

    def candidates(self, chain):
        """Reference ground-state covariances of a chain (two when it has a zero mode)."""
        if chain not in self._reference:
            _, n, mu, delta = chain
            self._reference[chain] = ref.ground_covariances(*ref.kitaev_matrices(n, mu, 1.0, delta))
        return self._reference[chain]

    def check(self, case: ChainCase, output):
        if isinstance(output, tuple):
            code, err = output
            # NotIsotropicError also exits 2; its message names itself.
            expect(code == 2 and "covariance matrix is not isotropic:" not in err,
                   f"failure other than NumericalConsistencyError: exit {code}: {err.strip()}")
            return
        header, row = output.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        expect(int(cells["cut"]) == case.cut, f"CSV reports cut {cells['cut']}")
        thetas = [float(v) for k, v in cells.items() if k.startswith("theta_") and v]
        expect(len(thetas) == int(cells["s"]), f"pair count disagrees with thetas")
        entropy = float(cells["E_M"])
        n = case.chain[1]
        a, b = tuple(range(case.cut)), tuple(range(case.cut, n))
        problems = []
        for m in self.candidates(case.chain):
            kappas_ref = ref.cross_kappas(m, a, b)
            kappas = np.zeros(len(kappas_ref))
            kappas[: len(thetas)] = sorted(np.sin(2.0 * np.asarray(thetas)), reverse=True)
            dk = float(np.max(np.abs(kappas - kappas_ref)))
            de = abs(entropy - ref.pure_entropy(m, a, b))
            if dk <= TOL and de <= TOL:
                return
            problems.append(f"kappa {dk:.3e}, entropy {de:.3e}")
        raise CheckFailure(f"differs from every reference ground state: {problems}")


class OracleCase(NamedTuple):
    label: str
    n: int
    hamiltonian: object
    partition: object


class Oracle:
    """Dense Fock-space route on random quadratic Hamiltonians and Kitaev chains, plus ``verify``."""

    SIZES = (7, 8, 9)
    # Both pass the half cut at N = 7, 8, 9; the seed picks one per size.
    CHAINS = (("topological", 0.5, 1.0), ("critical", 2.0, 1.0))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.cases: list = []
        self._reference: dict = {}

    def setup(self):
        rng = seeded_rng(self.seed)
        cases = []
        for n in self.SIZES:
            half = fm.Bipartition(tuple(range(n // 2)), tuple(range(n // 2, n)))
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            ham = fm.QuadraticHamiltonian(0.5 * (c + c.conj().T), 0.5 * (p - p.T))
            cases.append(OracleCase(f"random N={n}", n, ham, half))
            name, mu, delta = self.CHAINS[int(rng.integers(len(self.CHAINS)))]
            ham = fm.kitaev_hamiltonian(n, mu, 1.0, delta)
            cases.append(OracleCase(f"kitaev-{name} N={n}", n, ham, half))
        cases.append(OracleCase("verify", 0, None, None))
        self.cases = cases
        for n in self.SIZES:
            self.run(next(c for c in cases if c.n == n))
        self.run(cases[-1])

    def run(self, case: OracleCase):
        if case.hamiltonian is None:
            code, out, err = call_cli(["verify"])
            return True, (code, out + err)
        state, energy, degenerate = fm.dense_ground_state(case.hamiltonian)
        fcm = fm.fcm_from_state(state)
        decomp = fm.modewise_decompose(fcm, case.partition)
        _, fidelity = fm.reconstruct_state(decomp, state)
        entropy = fm.schmidt_entropy(state, case.partition)
        return True, (energy, degenerate, fcm, decomp, fidelity, entropy)

    def check(self, case: OracleCase, output):
        if case.hamiltonian is None:
            code, text = output
            expect(code == 0 and "FAIL" not in text, f"verify exited {code}: {text.strip()[-300:]}")
            return
        energy, degenerate, fcm, decomp, fidelity, entropy = output
        ham = case.hamiltonian
        if case.label not in self._reference:
            self._reference[case.label] = (ref.ground_energy(ham.hopping, ham.pairing),
                                           ref.ground_covariances(ham.hopping, ham.pairing))
        energy_ref, candidates = self._reference[case.label]
        expect(not degenerate and len(candidates) == 1, f"degenerate ground state")
        m_ref = candidates[0]
        expect(abs(energy - energy_ref) <= TOL, f"energy off by {abs(energy - energy_ref):.3e}")
        diff = float(np.max(np.abs(fcm.matrix - m_ref)))
        expect(diff <= TOL, f"covariance off by {diff:.3e}")
        expect(fidelity >= 1.0 - FIDELITY_TOL, f"reconstruction fidelity {fidelity!r}")
        part = case.partition
        diff = abs(entropy - ref.pure_entropy(m_ref, part.a_modes, part.b_modes))
        expect(diff <= TOL, f"Schmidt entropy differs from the cross-block reference by {diff:.3e}")
        check_decomposition(fcm.matrix, part.a_modes, part.b_modes, decomp.transform_a, decomp.transform_b,
                            *pairs_of(decomp), decomp.lambda0)


WORKLOADS = {
    "decompose-random": DecomposeRandom,
    "cli-pipeline": CliPipeline,
    "chain-cuts": ChainCuts,
    "oracle": Oracle,
}
