"""Golden outputs: the exact bytes small runs write, pinned by sha256.

A change that alters output bytes on purpose updates these digests and says
so in CHANGES.md.  Checkpoints are digested without ``config.out_dir``, the
only field that names where a run was written.
"""

import hashlib
import json

import numpy as np
import pytest

from cdas.cli import main
from cdas.config import STRATEGIES, ExperimentConfig
from cdas.harness import (
    BATCHES_FILE,
    CHECKPOINT_FILE,
    METRICS_FILE,
    PROBLEMS_FILE,
    SUMMARY_FILE,
    compare_strategies,
    run_experiment,
)
from cdas.learner import generate_bank, save_bank

SMALL = ExperimentConfig(n_problems=200, batch_size=16, total_steps=20, seed=11)

RUNS = {
    "cdas": SMALL,
    "random": SMALL.with_overrides(strategy="random"),
    "curriculum": SMALL.with_overrides(strategy="curriculum"),
    "prioritized": SMALL.with_overrides(strategy="prioritized"),
    "dynamic": SMALL.with_overrides(strategy="dynamic"),
    "cdas-variant": SMALL.with_overrides(bank_mode="levels", symmetric=False, batch_size=64),
    "prioritized-7-rollouts": SMALL.with_overrides(strategy="prioritized", rollouts=7),
    # A high start ability passes whole groups, so some batches fall back to uniform.
    "prioritized-fallback": SMALL.with_overrides(strategy="prioritized", ability_init=4.0),
    "dynamic-5-rollouts": SMALL.with_overrides(strategy="dynamic", rollouts=5),
    # A higher one passes nearly every group, so most batches spend all
    # RETRY_CAP rounds and are padded.
    "dynamic-capped": SMALL.with_overrides(strategy="dynamic", ability_init=5.0),
    # The bank file is written to the working directory, so the embedded
    # config (and with it every config hash) names the same relative path.
    "saved-bank": SMALL.with_overrides(bank_path="bank.json", total_steps=12),
}

RUN_FILES = (METRICS_FILE, BATCHES_FILE, PROBLEMS_FILE, SUMMARY_FILE)

GOLDEN_RUNS = {
    "cdas": {
        "metrics.csv": "cc2d06a3a27364c7c526d37deb80a16e353cf9b1e39497214af05b077e8e86e2",
        "batches.csv": "29034fa4b588e8d564dbbe38bd7ae568ea9208d5f5befef6ebdc40061cb93d04",
        "problems.csv": "2cc7b615bcecc9c6b4ea299ca4c515d6745e93e583e6017d88ce23eb6179f6e4",
        "summary.json": "5343af279e59d3dfd077d9b53726357c8b7403aea05510ef4c5d67954bc0e621",
        "checkpoint.json": "abc38f3cfa90dfb630f6b49ff695df9ba79ccce97c8668de1628ea156de12450",
    },
    "cdas-variant": {
        "metrics.csv": "0834bca40b5cfea840bdef1389d62357972565892905191be9b1b53ebf472d5e",
        "batches.csv": "54f8f5755deb306cb31da1b42e36fcfdb1ce19af611a919595ca6a69c33f510c",
        "problems.csv": "e3c771843ad02ec7b2f9f24ba20407276703e6a9e91aff9878f6926a2c9ab9fa",
        "summary.json": "aa0dac34fa66596c264a213456955c0a36abb731e46409312541295f47b0afd9",
        "checkpoint.json": "245692e3f247e1dcbac0307f40e6b3c79a88acf593d4b0ae0297918ce0696d9f",
    },
    "curriculum": {
        "metrics.csv": "2ece74a5912681632ecf0e1a4a1c619caf85dda5fa22ee1ac889e538daa7167c",
        "batches.csv": "dc59751a95d8fc91451f888b1bd1d07340b416bec2c20dfdea0d628631ef107a",
        "problems.csv": "fbc6e00def029246d75cdbb9d478981e9874dc3467e4fe90aa5648bdbca239f6",
        "summary.json": "a8b0e137496d0944bbadd3ecf49e9801969d975f1f5bf71e48772f6e4939d34f",
        "checkpoint.json": "5125554d2dd7b88d2cc523aa7e87ba28e0708182a79ff1703c1ef70734bc7321",
    },
    "dynamic": {
        "metrics.csv": "a6c5bc9df3d30dde4fda32967ab2160bacc68b533f367e696058a73b80380370",
        "batches.csv": "40e31e5ec4f4727a9fa6e4f9602ddbe2b757413527d3f943978dbc1f7381aa0c",
        "problems.csv": "0893ec40326a04566d3dbb5591c3437648e08b9e3c42f644ca67a73e79b9d309",
        "summary.json": "1e6f76f02f3e3ec41583cbb8c9c7632bd7c7310ef7c0aded81924120a3eeaf6d",
        "checkpoint.json": "4a9ea28a85ec9b3d50164f266ad224d75cffb76ced5dbf8482e32b3a6b845842",
    },
    "dynamic-capped": {
        "metrics.csv": "c5e2e902765c693e9ec80fb7909168f7cc55a3386e37ee0fc93049297572c217",
        "batches.csv": "0d7620e1198df380431657975904cfb3588cfedb4541104d08b58d0f860701da",
        "problems.csv": "d13636c0f3a979c17063df97c89c6deb6383122fe547d33c6523f5912f2c7c83",
        "summary.json": "45aae57a20cce73c54da43712f9d90f7a1e6dd9b16a11d0a22e5adab25678bad",
        "checkpoint.json": "2ef9005e7515e44c51251f295e21ef803d238e6b26b0aef0389d9d25d5308551",
    },
    "dynamic-5-rollouts": {
        "metrics.csv": "570caf70866b72a12a9fb036871c0c7213e1a63124a9d6b1fe14e8c27e9a2243",
        "batches.csv": "7daaffe26b4036b70396de0358747b0adc5c071dabaef54baba2f769d34b62c6",
        "problems.csv": "4a5c550beb7eb61f77acb2b0cdc131300579a183089efef9d81793961f40d45a",
        "summary.json": "3ab6081cf5964afc2b5e4f249f9e6cdcd02f99b14a9994164e84c55295a357ae",
        "checkpoint.json": "3aa003ac665fb77d9db84a7083aceee4622ee376f726f3032833d8b0c7dbe26b",
    },
    "prioritized-fallback": {
        "metrics.csv": "f4b06cd67eafd60dcc67e4fd0cff77e456b3a9d2d2a8416a05250315e7f28c2c",
        "batches.csv": "0ad770980b9aa5b9a9f4cb98304a40c05ad32a1d8d8f1ef6150c081675f7ebce",
        "problems.csv": "768d1f34bcb1a31442c6b9b9f8be075988ef1e1ecc048a5975865c18e366d271",
        "summary.json": "ffa61c6e6632a5d01632e1bb8ac7d73a3cb89aa738eeb7d4ce26f025033f562b",
        "checkpoint.json": "df71c0e98a9d00adda4323f1af50c1b93b0f7c7b2e7ace332bed3f14bd9661b0",
    },
    "prioritized-7-rollouts": {
        "metrics.csv": "4cd6aa72a41b0f8a950ba364403d346165a2631f8bf549f36b8956a2b9f6c3bc",
        "batches.csv": "e73a7a2417530c8c79217940468b3f567dd3836d34a97b2452dceea9cea58a4f",
        "problems.csv": "f5d3ffb6d329839425340494af4e9c9d61f128bee5f61199593473f3872c97ba",
        "summary.json": "d7a3e0ce57f1d1f264aff15f6f524d88e1a3dc577e504c45a7a4955b369f492a",
        "checkpoint.json": "ee94fde3602c09ab3632a860dcc6773521c92b39953ca0741fe8385f11c888f0",
    },
    "prioritized": {
        "metrics.csv": "d0b7a4d066bb1bd774d1de9a4967c049776107fe9a73e177171a767b2597eaf9",
        "batches.csv": "7d4ed9c5a3d6cc8d161c255ebada1cae2f11562b3448d1819611ae9e7dfd9ecd",
        "problems.csv": "81a9d3de17609dddbddfd136842a2d1446e2a9d1dcec85fce7fce9675f6ea894",
        "summary.json": "6a05d04489f39e720b4f040c60657d3f4fee3b4c9c2a5c6e9b05272ddbdb521e",
        "checkpoint.json": "c0e570d14528531fe8a9a0cbb6f69f01c9b3c95d9a51b9f87347b4aedea49a4a",
    },
    "random": {
        "metrics.csv": "5b79768d1e5eaa3526d82a2133409aaf8421586f4ca1e81e9af669ae5ff2d7b7",
        "batches.csv": "7e677f63ef2a61fcac869f5369fed0f01056d12ebc919059f9a0bb6d2690b3c6",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "f09ba3dea46681809e9fc1e85b22cf64c3f2ab518655e44dff8db31394528adc",
        "checkpoint.json": "72bc051a814b97af3d1ae40e1b889b7dde14a40649d8a3f5a69d198150c2d5c6",
    },
    "saved-bank": {
        "metrics.csv": "230677bc614a13e72380d67838ac66fa2d3c255bb1acd225b47d57d8ce75b951",
        "batches.csv": "18b2a44c86caf1cbe7a3751f4feb265966a360c450fa4ef283789532a3c8e305",
        "problems.csv": "4e7be58288157b8d502446d5c910689aa3e47be5a54fe8bcf06c412bd9bbafaf",
        "summary.json": "f3c68b54fd754c4da103c1a49ac36010ba208dccb6c83d5c0fb7cb79a35994d9",
        "checkpoint.json": "cf90761030bd4d2900276dd192df23b283350f92cc907e14e362eb1bdf89ed15",
        "bank.json": "a0fcfdd909f6f9bd161181679653c96ea18ba6288fc5c8de7b0451f6d477b1ad",
    },
}

# Every strategy over two seeds, written by compare_strategies.
GOLDEN_COMPARISON = {
    "comparison.csv": "3e53d7cdb8d7b0f6efee611f78654cc90c33879c60eeaae5f5af8920f0d6cc8b",
    "comparison_summary.csv": "62fbce85cde8b3a270f7baa15fc3c777cc19f98090b0f0abdb51cee183315cf1",
}

# `cdas fixed-point` from a random start on 3,000 fixed rates.
GOLDEN_FIXED_POINT = {
    "solution.json": "1521ebcb9f3bb9b2e44b153a235b3336c67b375a0120bf2a7f64ee74eb29fc6a",
    "trajectory.csv": "b7c8fa4917d0823b765cfc9ad38b2bfdf13bef3a32795df8d78941c005021574",
}

GOLDEN_BANK_HASHES = {
    "normal": "45f08122f84a5f2220885a398db94aaf589e9ed9ff824af67de1cc80b37716e5",
    "levels": "b8169b007cffbd5c370365d44aa859e38e904e22032ef87faeaaa20a4887d95e",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(out) -> dict[str, str]:
    digests = {name: _sha256((out / name).read_bytes()) for name in RUN_FILES}
    checkpoint = json.loads((out / CHECKPOINT_FILE).read_text())
    del checkpoint["config"]["out_dir"]
    digests[CHECKPOINT_FILE] = _sha256(json.dumps(checkpoint).encode())
    return digests


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_outputs_match_golden_digests(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    if name == "saved-bank":
        bank = generate_bank(ExperimentConfig(n_problems=150), np.random.default_rng(3))
        save_bank(bank, "bank.json")
    out = tmp_path / "out"
    run_experiment(RUNS[name].with_overrides(out_dir=str(out)))
    digests = _digests(out)
    if name == "saved-bank":
        digests["bank.json"] = _sha256((tmp_path / "bank.json").read_bytes())
    assert digests == GOLDEN_RUNS[name]


def test_comparison_outputs_match_golden_digests(tmp_path):
    compare_strategies(SMALL, list(STRATEGIES), seeds=[11, 12], out_dir=tmp_path)
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in GOLDEN_COMPARISON}
    assert digests == GOLDEN_COMPARISON


@pytest.mark.parametrize("mode", ["normal", "levels"])
def test_generated_bank_hash_matches_golden(mode):
    bank = generate_bank(ExperimentConfig(n_problems=500, bank_mode=mode), np.random.default_rng(7))
    assert bank.content_hash() == GOLDEN_BANK_HASHES[mode]


def test_fixed_point_outputs_match_golden_digests(tmp_path):
    rates = np.random.default_rng(29).uniform(0.0, 1.0, 3000)
    s_star = tmp_path / "rates.txt"
    s_star.write_text("".join(f"{rate!r}\n" for rate in rates.tolist()))
    argv = [
        "fixed-point", "--s-star", str(s_star), "--init-seed", "5",
        "--out", str(tmp_path / "solution.json"),
        "--trajectory-out", str(tmp_path / "trajectory.csv"),
    ]
    assert main(argv) == 0
    digests = {name: _sha256((tmp_path / name).read_bytes()) for name in GOLDEN_FIXED_POINT}
    assert digests == GOLDEN_FIXED_POINT
