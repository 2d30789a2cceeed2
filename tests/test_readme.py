"""The README's library example runs, and the names it uses exist, in the library as it is."""

import dataclasses
import importlib
import json
import re
import shlex
from pathlib import Path

import pytest

import cdas
from cdas import harness, learner
from cdas.cli import build_parser
from cdas.errors import ConfigError

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
    sampler, replica = namespace["sampler"], namespace["replica"]
    assert sampler.step == replica.step == 2
    assert sampler.pending is None and replica.pending is None
    assert replica.estimates.tobytes() == sampler.estimates.tobytes()
    assert replica.last_pass_rates.tobytes() == sampler.last_pass_rates.tobytes()


def test_readme_cli_lines_parse():
    # Every command in the bash block under ## CLI, checked against the parser as it is.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```bash\n(.*?)```", section, re.DOTALL).group(1)
    lines = [line for line in block.splitlines() if line.startswith("cdas ")]
    assert len(lines) >= 11
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"the README's CLI line does not parse: {line}")


# A backticked dotted name, such as `cdas.files.replacing` or `RunResult.batches`.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names a module, or an attribute or dataclass field of one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
            break
        except ImportError:
            continue
    else:
        return False
    for position, name in enumerate(parts[cut:], start=cut + 1):
        if hasattr(target, name):
            target = getattr(target, name)
        else:
            fields = dataclasses.fields(target) if dataclasses.is_dataclass(target) else ()
            return position == len(parts) and name in {field.name for field in fields}
    return True


def test_readme_names_resolve():
    # `cdas.`-qualified names, and names under anything the package exports
    # (`RunResult.bank_hash`, `harness.STAGES`); file names are not names.
    exported = {name for name in dir(cdas) if not name.startswith("_")}
    names = {
        name if name.startswith("cdas.") else f"cdas.{name}"
        for name in DOTTED.findall(README.read_text(encoding="utf-8"))
        if name.split(".")[0] in exported | {"cdas"} and not name.endswith((".csv", ".json"))
    }
    assert {"cdas.learner.ProblemBank", "cdas.RunResult.batches", "cdas.harness.STAGES"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []


def test_readme_format_versions_match_the_code(tmp_path):
    text = README.read_text(encoding="utf-8")

    def stated(pattern: str) -> list[int]:
        return [int(n) for n in re.findall(pattern.replace(" ", r"\s+"), text)]

    checkpoint = harness.CHECKPOINT_VERSION
    assert stated(r"`checkpoint\.json` \(format version (\d+)\)") == [checkpoint]
    assert stated(r"Checkpoints of versions 1 to (\d+) are refused") == [checkpoint - 1]
    for version in range(1, checkpoint):
        path = tmp_path / f"checkpoint{version}.json"
        path.write_text(json.dumps({"format_version": version}))
        with pytest.raises(ConfigError, match=f"unsupported format_version {version} "):
            harness.load_checkpoint(path)
    # The keys the README lists for checkpoint.json, in the order it writes them.
    section = text.split("- `checkpoint.json` (format version", 1)[1].split("\n\n", 1)[0]
    listed = tuple(re.findall(r"^  - `(\w+)`:", section, re.MULTILINE))
    assert listed == harness._CHECKPOINT_FIELDS
    assert stated(r"Bank files are format version (\d+)") == [learner.BANK_FORMAT_VERSION]
    assert stated(r"Bank files of versions 1 to (\d+) are refused") == [
        learner.BANK_FORMAT_VERSION - 1
    ]
