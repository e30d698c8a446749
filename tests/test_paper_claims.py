"""The claims ledger: each claim of the paper's abstract as one seeded experiment.

Each row states its claim, its experiment and its threshold.  A claim the package
shows not to hold is kept as a strict xfail that names what would change it.

- "ZECS removes part of the sampling error": 12 seeded ``efficient_su2(4, reps=2)``
  pure states, N = 6,000 records each; the trace distance to the state of ``rho_cs``
  and of its ZECS projection.  Holds if, for every state, ZECS is below 0.2 and
  below a third of the raw distance.
"""

import pytest

from zecs.projection import zecs_project
from zecs.shadow import reconstruct
from zecs.simulator import build_efficient_su2, random_su2_params, run, sample_shadow
from zecs.states import trace_distance


@pytest.mark.parametrize("seed", range(12))
def test_zecs_removes_part_of_the_sampling_error(seed):
    """Raw ``rho_cs`` reads 0.50-0.58 from the state and ZECS 0.08-0.12; ZECS / raw <= 0.23."""
    state = run(build_efficient_su2(4, 2, random_su2_params(4, 2, seed)))
    truth = state.to_density()
    raw = reconstruct(sample_shadow(state, 6000, seed), range(4))
    raw_error = trace_distance(raw, truth)
    zecs_error = trace_distance(zecs_project(raw).rho_zecs, truth)
    assert zecs_error < 0.2
    assert zecs_error < raw_error / 3
