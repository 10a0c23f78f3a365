"""Core-count sizing: the one search every grant goes through."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.tasks import unit_duration
from repro.scheduling.base import _CORE_GRID, min_cores


@st.composite
def _duration_tables(draw):
    """An arbitrary (often non-monotone) duration per core count, a budget.

    Small integer durations make ties and exact budget hits common.
    """
    limit = draw(st.integers(1, 72))
    table = draw(st.lists(st.integers(0, 40), min_size=limit,
                          max_size=limit))
    return table, float(draw(st.integers(0, 40)))


class TestMinCores:
    @given(_duration_tables())
    @settings(max_examples=300, deadline=None)
    def test_first_feasible_count_or_grid_argmin(self, case):
        table, budget = case
        limit = len(table)

        def duration(cores):
            assert 1 <= cores <= limit
            return float(table[cores - 1])

        cores, met = min_cores(duration, budget, limit)
        grid = [c for c in _CORE_GRID if c < limit] + [limit]
        feasible = [c for c in grid if duration(c) <= budget]
        assert met == bool(feasible)
        if met:
            assert 1 <= cores <= limit
            assert duration(cores) <= budget
            # The refine window runs from just past the grid point before
            # the first feasible one up to that feasible point.
            first = grid.index(feasible[0])
            low = grid[first - 1] + 1 if first else 1
            window = range(low, feasible[0] + 1)
            assert cores == next(c for c in window if duration(c) <= budget)
        else:
            assert cores == min(grid, key=duration)


@pytest.mark.xfail(
    strict=True,
    reason="per-layer sizing leaves out the spawn the engine charges on "
           "every unit: ROADMAP 'Make Fig. 12 reproduce', One sizing "
           "function")
def test_profiled_layer_grants_meet_their_budgets(light_stack):
    """Each layer, run alone at its profiled grant, finishes in budget.

    The layer is charged as the engine charges a one-layer block.
    """
    cost_model = light_stack.cost_model
    over = []
    for name, profile in sorted(light_stack.profiles.items()):
        for index, (layer, version, budget, cores) in enumerate(zip(
                profile.layers, profile.static_versions,
                profile.layer_budgets_s, profile.layer_required_cores)):
            if unit_duration(cost_model, (layer,), (version,), cores,
                             0.0) > budget:
                over.append((name, index))
    assert over == []
