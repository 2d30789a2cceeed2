"""Golden outputs: the exact bytes small runs write, pinned by sha256.

A change that alters output bytes on purpose updates these digests and says
so in CHANGES.md.  Checkpoints are digested without ``config.out_dir``, the
only field that names where a run was written.
"""

import hashlib
import json

import numpy as np
import pytest

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
        "summary.json": "d8b335b70a8d2e2b9fda823f04ad08b79354072a13638dabee38028e153b2699",
        "checkpoint.json": "0064d5771adf5b8403f4e4af6e4532340fa302459d4b78be61c61756e4251ac8",
    },
    "cdas-variant": {
        "metrics.csv": "0834bca40b5cfea840bdef1389d62357972565892905191be9b1b53ebf472d5e",
        "batches.csv": "54f8f5755deb306cb31da1b42e36fcfdb1ce19af611a919595ca6a69c33f510c",
        "problems.csv": "e3c771843ad02ec7b2f9f24ba20407276703e6a9e91aff9878f6926a2c9ab9fa",
        "summary.json": "816d438bb68e48e2ca2384fff10f95d14ccc83c0e5db6313203a663049dce372",
        "checkpoint.json": "8ed4f1cea962c05a3d9bcc6f54a7239e3657dc9c6f65d1ebb251c2d2ee61fda3",
    },
    "curriculum": {
        "metrics.csv": "2ece74a5912681632ecf0e1a4a1c619caf85dda5fa22ee1ac889e538daa7167c",
        "batches.csv": "dc59751a95d8fc91451f888b1bd1d07340b416bec2c20dfdea0d628631ef107a",
        "problems.csv": "fbc6e00def029246d75cdbb9d478981e9874dc3467e4fe90aa5648bdbca239f6",
        "summary.json": "5b9d26c0481537308dac1c2fb7c899c861100c43da8dfb30de3bc1986678b1eb",
        "checkpoint.json": "2688425719929214d98e5266b3fcaf8247646d48291988e365fa29692c3cd9c8",
    },
    "dynamic": {
        "metrics.csv": "a6c5bc9df3d30dde4fda32967ab2160bacc68b533f367e696058a73b80380370",
        "batches.csv": "40e31e5ec4f4727a9fa6e4f9602ddbe2b757413527d3f943978dbc1f7381aa0c",
        "problems.csv": "0893ec40326a04566d3dbb5591c3437648e08b9e3c42f644ca67a73e79b9d309",
        "summary.json": "4642cf8f31ac526cf5166560ec5dac124929db4ba43a36a28f89762cbaeda8f9",
        "checkpoint.json": "f11c3af8269cd7f7621fbe635eeb6b3d1b3b10b20f0f1e6234d96a5defa412ae",
    },
    "dynamic-capped": {
        "metrics.csv": "c5e2e902765c693e9ec80fb7909168f7cc55a3386e37ee0fc93049297572c217",
        "batches.csv": "0d7620e1198df380431657975904cfb3588cfedb4541104d08b58d0f860701da",
        "problems.csv": "d13636c0f3a979c17063df97c89c6deb6383122fe547d33c6523f5912f2c7c83",
        "summary.json": "824ab32beb90cf596ef68aa5d496f51c1332d0ee14aad42e597163102d050eac",
        "checkpoint.json": "4e9839c2b6ff0e049ae36233df9d827011e143576e786a0979f609bdd4d2d0a3",
    },
    "dynamic-5-rollouts": {
        "metrics.csv": "570caf70866b72a12a9fb036871c0c7213e1a63124a9d6b1fe14e8c27e9a2243",
        "batches.csv": "7daaffe26b4036b70396de0358747b0adc5c071dabaef54baba2f769d34b62c6",
        "problems.csv": "4a5c550beb7eb61f77acb2b0cdc131300579a183089efef9d81793961f40d45a",
        "summary.json": "a61064b8bbf3c487bdaa9a08857874194695b0df2a45d85a6de9f9bd8c7b0344",
        "checkpoint.json": "d93e20260140a0eec0e3125d587f424c9a996dc685e492a6559749ef07fb8a93",
    },
    "prioritized-fallback": {
        "metrics.csv": "f4b06cd67eafd60dcc67e4fd0cff77e456b3a9d2d2a8416a05250315e7f28c2c",
        "batches.csv": "0ad770980b9aa5b9a9f4cb98304a40c05ad32a1d8d8f1ef6150c081675f7ebce",
        "problems.csv": "768d1f34bcb1a31442c6b9b9f8be075988ef1e1ecc048a5975865c18e366d271",
        "summary.json": "718e5242f3d96ca83c7e07d774560173916a4af41670f8b8a4852da5d077f398",
        "checkpoint.json": "db673e0b3f639c2f32f99cc0560ebb792c50b036181028b929924239effb16c8",
    },
    "prioritized-7-rollouts": {
        "metrics.csv": "4cd6aa72a41b0f8a950ba364403d346165a2631f8bf549f36b8956a2b9f6c3bc",
        "batches.csv": "e73a7a2417530c8c79217940468b3f567dd3836d34a97b2452dceea9cea58a4f",
        "problems.csv": "f5d3ffb6d329839425340494af4e9c9d61f128bee5f61199593473f3872c97ba",
        "summary.json": "30d9a62dde0505155c96a87231d95e52fccc8a1bc2eca2a61e774365868af180",
        "checkpoint.json": "e8e83e822304d84cbe3a758128bb5666c4866d508915ab373ef6b6e64c5959b9",
    },
    "prioritized": {
        "metrics.csv": "d0b7a4d066bb1bd774d1de9a4967c049776107fe9a73e177171a767b2597eaf9",
        "batches.csv": "7d4ed9c5a3d6cc8d161c255ebada1cae2f11562b3448d1819611ae9e7dfd9ecd",
        "problems.csv": "81a9d3de17609dddbddfd136842a2d1446e2a9d1dcec85fce7fce9675f6ea894",
        "summary.json": "1227beada61d707caf5360dbccec9824a644482e4b38019ca7730f380a92f93f",
        "checkpoint.json": "7f58d0e4929f7c6dfe4f139d0926b71ad6d1fc1656534290ba4238bd992aefe6",
    },
    "random": {
        "metrics.csv": "5b79768d1e5eaa3526d82a2133409aaf8421586f4ca1e81e9af669ae5ff2d7b7",
        "batches.csv": "7e677f63ef2a61fcac869f5369fed0f01056d12ebc919059f9a0bb6d2690b3c6",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "381c0ec15192ddb70a552ea3917b63403161653ff15bc0735e4efbc5e93f0f75",
        "checkpoint.json": "36a2fb71a4b0155a2d36ee20edf2fe2e9ee86ebbff2c8d30a54e01151643f108",
    },
    "saved-bank": {
        "metrics.csv": "230677bc614a13e72380d67838ac66fa2d3c255bb1acd225b47d57d8ce75b951",
        "batches.csv": "18b2a44c86caf1cbe7a3751f4feb265966a360c450fa4ef283789532a3c8e305",
        "problems.csv": "4e7be58288157b8d502446d5c910689aa3e47be5a54fe8bcf06c412bd9bbafaf",
        "summary.json": "f44645b81d7286faac3be889a304b8e0589197d304ced28db342dbc273c88bbd",
        "checkpoint.json": "fe29222c500089947a02d06202c2f9496ad44020e40d0e2abe94fc084429c733",
        "bank.json": "d3f70d77feb120806e84e8f34f04fd8771a55a2734bf4c812e9c48c3c00a8750",
    },
}

# Every strategy over two seeds, written by compare_strategies.
GOLDEN_COMPARISON = {
    "comparison.csv": "3e53d7cdb8d7b0f6efee611f78654cc90c33879c60eeaae5f5af8920f0d6cc8b",
    "comparison_summary.csv": "561cceed7f03ae0b45941382494d79739e42e7fd53f0b6f67b013021a2f2cbda",
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
