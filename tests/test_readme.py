"""The README's library example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first python block under the README's ``## Library use`` heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library use"
    return match.group(1)


def test_library_example_runs():
    # Stand-ins for the caller's own rollouts: every problem passes half its
    # group of eight.
    namespace = {
        "my_pass_rate": lambda problem_id: 0.5,
        "my_roll_round": lambda indices: [4] * len(indices),
    }
    exec(compile(_library_example(), str(README), "exec"), namespace)
    sampler = namespace["sampler"]
    assert sampler.step == 2
    assert sampler.pending is None
    assert namespace["state"]["step"] == 2
