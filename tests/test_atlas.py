"""The paper's structural claims, checked over every nonempty proper
reference set of every P(n, k) with n <= 10 and k <= n + 2.

Each grounded Laplacian is taken from build_platoon(n, k).laplacian() by
np.ix_ alone, and the blocks of each follower count are solved in one
np.linalg.eigvalsh: the sweeps' and the scaling study's gather
(experiments._gains, experiments._sweep_rows) is what these claims check,
so it is not used here.  Each claim fails with its smallest counterexample
(n, k, refs).
"""

import math
from itertools import combinations

import numpy as np
import pytest

from platoonkit import build_platoon, delay_bounds_k, md_arrangement, min_refs_nonexpansive

N_MAX = 10
#: eigvalsh gives an exact eigenvalue 1 a few ulp off (P(36,4) MD's lambda_1
#: as 0.9999999999999997), and every bound below is held to this slack
TOL = 1e-9


def grounded_extremes(n, k):
    """{refs: (lambda_1, lambda_max)} for every nonempty proper reference
    set of P(n, k), refs a sorted tuple of 1-based indices."""
    lap = build_platoon(n, k).laplacian().astype(float)
    out = {}
    for n_refs in range(1, n):
        sets = list(combinations(range(1, n + 1), n_refs))
        blocks = []
        for refs in sets:
            followers = [i for i in range(n) if i + 1 not in refs]
            blocks.append(lap[np.ix_(followers, followers)])
        values = np.linalg.eigvalsh(np.stack(blocks))
        out.update(zip(sets, zip(values[:, 0].tolist(), values[:, -1].tolist())))
    return out


@pytest.fixture(scope="module")
def atlas():
    """[(n, k, refs, lambda_1, lambda_max)] over every platoon and set."""
    return [(n, k, refs, lam1, lam_max)
            for n in range(2, N_MAX + 1) for k in range(1, n + 3)
            for refs, (lam1, lam_max) in grounded_extremes(n, k).items()]


def smallest(failures) -> str:
    return "none" if not failures else f"{len(failures)}, the smallest {min(failures)}"


def test_every_set_is_covered(atlas):
    assert len(atlas) == sum((2 ** n - 2) * (n + 2) for n in range(2, N_MAX + 1))


def test_lambda_max_at_least_the_least_degree(atlas):
    # every vehicle of P(n, k) has degree >= min(k, n - 1), and lambda_max
    # is at least each follower's degree
    failures = [(n, k, refs) for n, k, refs, _, lam_max in atlas
                if lam_max < min(k, n - 1) - TOL]
    assert not failures, f"lambda_max < min(k, n - 1): {smallest(failures)}"


def test_lambda_max_at_most_4k(atlas):
    failures = [(n, k, refs) for n, k, refs, _, lam_max in atlas if lam_max > 4 * k + TOL]
    assert not failures, f"lambda_max > 4k: {smallest(failures)}"


def test_delay_bounds_k_bracket_the_exact_velocity_margin(atlas):
    # the exact margin is pi/(2 lambda_max); the bounds hold for k >= n too
    failures = [(n, k, refs) for n, k, refs, _, lam_max in atlas
                if not (delay_bounds_k(n, k)[0] <= math.pi / (2.0 * lam_max) * (1 + TOL)
                        and math.pi / (2.0 * lam_max) <= delay_bounds_k(n, k)[1] * (1 + TOL))]
    assert not failures, f"delay_bounds_k misses the margin: {smallest(failures)}"


def test_fewer_than_the_minimum_references_never_reach_lambda1_one(atlas):
    failures = [(n, k, refs) for n, k, refs, lam1, _ in atlas
                if len(refs) < min_refs_nonexpansive(n, k) and lam1 >= 1.0 - TOL]
    assert not failures, f"lambda_1 >= 1 with too few references: {smallest(failures)}"


def test_the_md_arrangement_reaches_lambda1_one(atlas):
    md = {(n, k): md_arrangement(n, k).refs for n in range(2, N_MAX + 1) for k in range(1, n + 3)}
    reached = {(n, k, refs) for n, k, refs, lam1, _ in atlas
               if refs == md[n, k] and lam1 >= 1.0 - TOL}
    failures = [(n, k, refs) for (n, k), refs in md.items() if (n, k, refs) not in reached]
    assert not failures, f"the MD arrangement has lambda_1 < 1: {smallest(failures)}"
    assert all(len(refs) == min_refs_nonexpansive(n, k) for (n, k), refs in md.items())
