"""Property test: the birth-death chain's state stays authorized, against its
materialised boundary, after every sweep, for d = 1..3, light and heavy
radius tails, q = 2 and 3, free, ordered and explicit boundaries, and each
birth check (direct scan or conflict lists) forced; after a block that built
lists, every stored ball's id is alive and distinct, and the alive ids are
the window and boundary balls."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import ORACLE_LAWS, oracle_params
from wrsim import sampling
from wrsim.sampling import WidomRowlinsonChain, is_authorized


def check_stays_authorized(list_fixed, d, law, q, boundary, seed, scale):
    params = oracle_params(d, law, q, boundary, seed, scale)
    chain = WidomRowlinsonChain(params, np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_LIST_FIXED", list_fixed)
        for _ in range(12):
            chain.sweep()
            assert is_authorized(chain.state(), chain.boundary)
            if chain._alive is not None:  # the last block built lists
                ids = np.concatenate([s.labels[:s.n] for s in chain.states])
                assert all(chain._alive[i] for i in ids)
                assert len(np.unique(ids)) == len(ids)
                assert (sum(chain._alive)
                        == chain.total_count + chain.boundary.total_count())


cases = given(st.integers(1, 3), st.sampled_from(ORACLE_LAWS),
              st.sampled_from([2, 3]),
              st.sampled_from(["free", "ordered", "explicit"]),
              st.integers(0, 2 ** 32 - 1), st.sampled_from([1.0, 3.0]))
slow = settings(max_examples=100, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@slow
@cases
def test_wr_chain_stays_authorized_after_every_sweep(d, law, q, boundary, seed,
                                                     scale):
    # every block scans directly
    check_stays_authorized(math.inf, d, law, q, boundary, seed, scale)


@slow
@cases
def test_wr_chain_with_lists_stays_authorized_after_every_sweep(
        d, law, q, boundary, seed, scale):
    # every block builds its conflict lists
    check_stays_authorized(-math.inf, d, law, q, boundary, seed, scale)
