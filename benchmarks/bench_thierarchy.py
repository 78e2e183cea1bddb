"""Example 15 / Proposition 5: the T-hierarchy frontier.

Verifies and times the frontier of the parameterized family
``Sigma_m`` (``Sigma_2`` = Figure 2): ``Sigma_m`` admits length-m
firing chains but no length-(m+1) ones, hence lies in T[m+1] \\ T[m].
The cost of the exhaustive negative chain search is the measured face
of the coNP recognition bound (Proposition 4).
"""

import pytest

from repro.termination import in_t_level, PrecedenceOracle, precedes_k
from repro.workloads.families import sigma_family


@pytest.mark.paper_artifact("Example 15")
def test_sigma2_in_t3_not_t2(benchmark):
    """Figure 2's constraint: T[3] \\ T[2]."""
    sigma = sigma_family(2)

    def run():
        oracle = PrecedenceOracle()
        return (in_t_level(sigma, 2, oracle), in_t_level(sigma, 3, oracle))

    in_t2, in_t3 = benchmark(run)
    assert not in_t2 and in_t3


@pytest.mark.paper_artifact("Example 15")
@pytest.mark.parametrize("m", [2, 3, 4])
def test_chain_relation_positive(benchmark, m):
    """<_{m, empty}(alpha, ..., alpha) holds for Sigma_m: the witness
    search is fast because a witness exists."""
    (alpha,) = sigma_family(m)

    def run():
        return PrecedenceOracle().precedes_k((alpha,) * m, [])

    assert benchmark(run) is True


@pytest.mark.paper_artifact("Example 15")
@pytest.mark.parametrize("m", [2])
def test_chain_relation_negative(benchmark, m):
    """<_{m+1, empty} fails for Sigma_m: the search must be exhaustive
    -- this is where the coNP cost lives."""
    (alpha,) = sigma_family(m)

    def run():
        return PrecedenceOracle().precedes_k((alpha,) * (m + 1), [])

    assert benchmark(run) is False


@pytest.mark.paper_artifact("Example 15 / Proposition 5c")
def test_sigma3_frontier(benchmark):
    """Sigma_3 in T[4] \\ T[3] -- the strictness witness one level up.
    Single exhaustive run (several seconds and 311,953 nodes of chain
    search, past the default node budget)."""
    sigma = sigma_family(3)

    def run():
        oracle = PrecedenceOracle(node_budget=1_000_000)
        return (in_t_level(sigma, 3, oracle), in_t_level(sigma, 4, oracle))

    in_t3, in_t4 = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not in_t3 and in_t4
    print("\nSigma_3 in T[4] \\ T[3]: hierarchy strict at level 4")
