"""The names the benchmark's per-layer tracer (bench/layers.py) wraps.

The tracer binds its timers by attribute name and skips a name the program
no longer has, so a renamed or inlined function makes its layer read 0
instead of failing.  These tests pin every name it reads.
"""

import pytest

from brownsim import cli, engine, policies

# names looked up on brownsim.engine when a Simulation steps or ends its run
ENGINE_SEAMS = ("brownout_step", "autoscale", "predict_rate", "overload_ratios",
                "nearest_rank_percentile", "hum", "derive_utilization",
                "synthesize_response", "validate_config")
# names looked up on brownsim.cli by `main` and the sweep
CLI_SEAMS = ("main", "load_config", "validate_config", "load_trace", "check_constraints")


def test_step_and_run_are_the_simulation_class_own_methods():
    assert "step" in vars(engine.Simulation) and "run" in vars(engine.Simulation)


@pytest.mark.parametrize("owner, name", [(engine, n) for n in ENGINE_SEAMS]
                         + [(cli, n) for n in CLI_SEAMS])
def test_each_traced_function_is_looked_up_where_it_is_wrapped(owner, name):
    assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name} is gone"


def test_the_selectors_are_reached_through_their_table():
    assert sorted(policies.SELECTORS) == ["LUCF", "MNCF", "RSC"]
    assert policies.SELECTORS["RSC"] is policies.select_rsc
