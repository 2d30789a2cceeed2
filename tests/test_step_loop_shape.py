"""The step loop works on bank-index arrays, with no per-problem scalar calls.

Counting stand-ins replace the scalar ``sigmoid``, ``PassRateObservation``
and ``ProblemRecord`` wherever a ``cdas`` module holds them.  A whole run,
set-up and output writing included, must call none of them: each is a
Python call per batch problem, the cost the array paths remove.  This gates
the shape of a step, not its wall-clock time.
"""

import sys
from collections import Counter

import pytest

from cdas import core
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.harness import run_experiment

SCALAR = {
    "sigmoid": core.sigmoid,
    "PassRateObservation": core.PassRateObservation,
    "ProblemRecord": core.ProblemRecord,
}


@pytest.fixture
def scalar_calls(monkeypatch):
    """Counts calls of the scalar functions and records, at every import site."""
    calls = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    patched = Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cdas"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for name, original in SCALAR.items():
                if value is original:
                    monkeypatch.setattr(module, attr, counting(name, original))
                    patched[name] += 1
    assert set(patched) == set(SCALAR)
    # The stand-ins count: the scalar oracle still routes through them.
    core.expected_performance(0.0, 0.0)
    core.ProblemRecord(id="x")
    assert calls == Counter(sigmoid=1, ProblemRecord=1)
    calls.clear()
    return calls


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_run_makes_no_per_problem_scalar_calls(scalar_calls, tmp_path, strategy):
    # 5k/256 warms the cdas sampler up in 20 steps, then selects by alignment.
    config = ExperimentConfig(
        n_problems=5000,
        batch_size=256,
        total_steps=30,
        strategy=strategy,
        out_dir=str(tmp_path),
    )
    result = run_experiment(config)
    assert len(result.rows) == 30
    assert scalar_calls == Counter()
