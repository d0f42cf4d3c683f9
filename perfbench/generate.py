"""Seeded scenario generator for the ``sweep`` workload.

The sweep is stratified: every seed yields the same mix of formalism,
structure, method, block size ``n`` and field kind, and the same number of
steps per file, so the total work of a pass barely depends on the seed.  The
seed only draws coefficients, mixed terms, masses and initial points.

Each generated scenario is round-tripped through ``serialize_scenario`` and
``parse_scenario`` before it is used; the program under test only ever sees
the written files.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from paramech.hamiltonian import HAMILTONIAN_METHODS
from paramech.lagrangian import LAGRANGIAN_METHODS
from paramech.scenario import FieldSpec, Scenario, parse_scenario, serialize_scenario

# Steps per file; t_end = STEPS * dt with dt a power of two, so the step plan
# is exact and every file takes the same number of steps.  The step size
# cycles with the file's position rather than being drawn, because the
# implicit stages iterate more at larger steps.
STEPS = 24
DT_CYCLE = (1 / 128, 1 / 64, 1 / 32)

# Per (formalism, structure, method) combination: the field kind and block
# size of each file.  Mostly quartic polynomials, one harmonic field and two
# kinetic-minus-potential fields, over n = 1, 2, 3.
FILE_PLAN = (
    ("polynomial", 1),
    ("polynomial", 2),
    ("polynomial", 3),
    ("polynomial", 1),
    ("polynomial", 2),
    ("polynomial", 3),
    ("polynomial", 2),
    ("harmonic", 2),
    ("kinetic_minus_potential", 1),
    ("kinetic_minus_potential", 2),
)


def combinations() -> list[tuple[str, str, str]]:
    """Every allowed (formalism, structure, method) triple."""
    combos = []
    for formalism, methods in (
        ("hamiltonian", HAMILTONIAN_METHODS),
        ("lagrangian", LAGRANGIAN_METHODS),
    ):
        for structure in ("F", "G", "H"):
            for method in methods:
                combos.append((formalism, structure, method))
    return combos


def _quartic_terms(rng: random.Random, dim: int) -> tuple:
    """A positive quadratic part plus small quartic and mixed quartic terms.

    The quadratic diagonal (coefficients 1/2..1) dominates the Hessian near
    the unit ball, so Lagrangian Hessians stay well conditioned and
    Hamiltonians stay coercive.
    """
    terms = []
    for a in range(dim):
        exponents = [0] * dim
        exponents[a] = 2
        terms.append((Fraction(rng.randint(2, 4), 4), tuple(exponents)))
    for a in range(dim):
        exponents = [0] * dim
        exponents[a] = 4
        terms.append((Fraction(rng.randint(1, 4), 16), tuple(exponents)))
    pairs = rng.sample([(a, b) for a in range(dim) for b in range(a + 1, dim)], dim // 2)
    for a, b in sorted(pairs):
        exponents = [0] * dim
        exponents[a] = 2
        exponents[b] = 2
        terms.append((Fraction(1, rng.choice((32, 64))), tuple(exponents)))
    return tuple(terms)


def _point(rng: random.Random, dim: int, low: float, high: float) -> tuple[float, ...]:
    return tuple(round(rng.choice((-1, 1)) * rng.uniform(low, high), 6) for _ in range(dim))


def make_scenario(
    rng: random.Random,
    formalism: str,
    structure: str,
    method: str,
    kind: str,
    n: int,
    dt: float,
) -> Scenario:
    dim = 4 * n
    if kind == "polynomial":
        spec = FieldSpec("polynomial", _quartic_terms(rng, dim))
        x0 = _point(rng, dim, 0.1, 0.6)
    elif kind == "harmonic":
        spec = FieldSpec("harmonic")
        x0 = _point(rng, dim, 0.1, 1.0)
    else:
        # Masses >= 1 and a weak pull keep Hess(T - P) = diag(m) - Mg/r (...)
        # far from singular while the state stays at radius 3 or more.
        masses = tuple(round(rng.uniform(1.0, 2.0), 3) for _ in range(n))
        spec = FieldSpec(
            "kinetic_minus_potential", masses=masses, g_const=round(rng.uniform(0.05, 0.25), 3)
        )
        x0 = _point(rng, dim, 1.5, 2.0)
    return Scenario(
        n=n,
        formalism=formalism,
        structure=structure,
        function=spec,
        x0=x0,
        t_end=STEPS * dt,
        dt=dt,
        method=method,
        convention="derived" if formalism == "lagrangian" else None,
    )


def generate_sweep(seed: int) -> list[tuple[str, Scenario, str]]:
    """(name, scenario, text) for every sweep file of this seed, in run order."""
    rng = random.Random(seed)
    files = []
    for formalism, structure, method in combinations():
        for k, (kind, n) in enumerate(FILE_PLAN):
            dt = DT_CYCLE[k % len(DT_CYCLE)]
            scenario = make_scenario(rng, formalism, structure, method, kind, n, dt)
            text = serialize_scenario(scenario)
            if parse_scenario(text) != scenario:
                raise RuntimeError(f"scenario does not survive a round trip:\n{text}")
            files.append((f"sweep_{len(files):03d}", scenario, text))
    return files


def write_sweep(seed: int, directory: Path) -> list[tuple[Path, Scenario]]:
    """Write the sweep files of this seed into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, scenario, text in generate_sweep(seed):
        path = directory / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        written.append((path, scenario))
    return written
