"""Property test: the birth-death chain's state stays authorized, against its
materialised boundary, after every sweep, for d = 1..3, light and heavy
radius tails, q = 2 and 3, and free, ordered and explicit boundaries."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import ORACLE_LAWS, oracle_params
from wrsim.sampling import WidomRowlinsonChain, is_authorized


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 3), st.sampled_from(ORACLE_LAWS), st.sampled_from([2, 3]),
       st.sampled_from(["free", "ordered", "explicit"]),
       st.integers(0, 2 ** 32 - 1))
def test_wr_chain_stays_authorized_after_every_sweep(d, law, q, boundary, seed):
    params = oracle_params(d, law, q, boundary, seed)
    chain = WidomRowlinsonChain(params, np.random.default_rng(seed))
    for _ in range(12):
        chain.sweep()
        assert is_authorized(chain.state(), chain.boundary)
