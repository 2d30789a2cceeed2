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
    "cdas-variant": SMALL.with_overrides(
        bank_mode="levels", initial_difficulty=0.25, symmetric=False, batch_size=64
    ),
    "prioritized-weighted": SMALL.with_overrides(
        strategy="prioritized", prioritized_initial_weight=0.3, rollouts=7
    ),
    # A high start ability passes whole groups, so some batches fall back to uniform.
    "prioritized-fallback": SMALL.with_overrides(strategy="prioritized", ability_init=4.0),
    "dynamic-oversampled": SMALL.with_overrides(
        strategy="dynamic", dynamic_oversample_factor=1.7, rollouts=5
    ),
    # One round per step leaves every batch short, so each one is padded.
    "dynamic-capped": SMALL.with_overrides(strategy="dynamic", dynamic_retry_cap=1),
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
        "summary.json": "8269809ff985fee926a4397e9f7336c04caaf6ac89d44c0ed85adcae9500b4d8",
        "checkpoint.json": "9464b2920962c957d507df8907fea16b1e791d09c9be6e4f1fdd3692add69dec",
    },
    "cdas-variant": {
        "metrics.csv": "9f3134deccd595c1f297b6f67d36ae54716f134c8cbfed639afe57ddf066c050",
        "batches.csv": "192f8e6cfd7b4ef03a68b1020db24a5eb7026f436f628cfb7d95cab1759c2f88",
        "problems.csv": "ca7115a661c4b3ccb636e0e303a6852a68f0d2da9bcaed31fbfa498c0d945f3e",
        "summary.json": "72280e9a94e99a3333c5b6778f39def9f2625aea8fa0556eb9131099872d73a0",
        "checkpoint.json": "1b57d56a99e84babcd34e0671222e720300fe7ef3211081c5605e9a0ba89a232",
    },
    "curriculum": {
        "metrics.csv": "2ece74a5912681632ecf0e1a4a1c619caf85dda5fa22ee1ac889e538daa7167c",
        "batches.csv": "dc59751a95d8fc91451f888b1bd1d07340b416bec2c20dfdea0d628631ef107a",
        "problems.csv": "fbc6e00def029246d75cdbb9d478981e9874dc3467e4fe90aa5648bdbca239f6",
        "summary.json": "2f7d7d3acbc61f69830953e93dba9782666d8e511b3ec7fcdffeb9dd7fd43b73",
        "checkpoint.json": "8fdbba9395ff61b995d1cf97bf5a9558d33b15de09a726dc666459bc726a6858",
    },
    "dynamic": {
        "metrics.csv": "a6c5bc9df3d30dde4fda32967ab2160bacc68b533f367e696058a73b80380370",
        "batches.csv": "40e31e5ec4f4727a9fa6e4f9602ddbe2b757413527d3f943978dbc1f7381aa0c",
        "problems.csv": "0893ec40326a04566d3dbb5591c3437648e08b9e3c42f644ca67a73e79b9d309",
        "summary.json": "fb7b569b1e511a59b1a6d92fe6d2ac0fe06c90f040d7dfd549cd9327d0e87877",
        "checkpoint.json": "d035391a88dd4f301d235c49f372f0f4058e44b9b37e10e2e0805b159f8b5a4b",
    },
    "dynamic-capped": {
        "metrics.csv": "20be7ae66b70e3cbd6b6aea32fb1bbf6c3a8de13a90b9f8bb03433f509706676",
        "batches.csv": "70c94f9c154e1a4e958647f2ab01722ac7a5f96846c03c834b3912712c7a75e4",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "770dcc186af6eaee20fee6a3391118ce9266add3ae08318fae1f19d00be37b00",
        "checkpoint.json": "5ffe7b38de9e0baa315e9c00fdcbd81af89bea0da310030e28e0c97ee12beda8",
    },
    "dynamic-oversampled": {
        "metrics.csv": "6f911b236774e27d90425610f7eb82fbe2583ececb70ac4503689fd641d39e8a",
        "batches.csv": "9224098cd542b5df40a853071e50c3863faf40799b62e45231e2aec90ff607b9",
        "problems.csv": "4c0af95b0db74de5f6da7e282af311ab9459e52f1eb9dc95777e6e1a2adcbd99",
        "summary.json": "cb2d4a2444530e4e09a9b412eb463b091965898fc7387abd76726aeb5918f4ba",
        "checkpoint.json": "7853de4f561b1d4bde777214bdc6d3cc287e480abd8ad3b3c63824f19b24356e",
    },
    "prioritized-fallback": {
        "metrics.csv": "f4b06cd67eafd60dcc67e4fd0cff77e456b3a9d2d2a8416a05250315e7f28c2c",
        "batches.csv": "0ad770980b9aa5b9a9f4cb98304a40c05ad32a1d8d8f1ef6150c081675f7ebce",
        "problems.csv": "768d1f34bcb1a31442c6b9b9f8be075988ef1e1ecc048a5975865c18e366d271",
        "summary.json": "9d99d418fa7564c76f5fd865c175577796323e03bb61071a4023c3711b3afc99",
        "checkpoint.json": "93c9b7c65f7e2319ea7613e03e4f5f2a0d69957af7986103066ce855ba56ff04",
    },
    "prioritized-weighted": {
        "metrics.csv": "b7a745a788b2b6117f9eb416669d94b5e8121cf2007c210a4687b4edcc1c9365",
        "batches.csv": "6079deb493956a69d9e1c2ffc3b34150ecf1353785b02dfc10db310f881ed418",
        "problems.csv": "aa8579245b4d2ed6294ae07a0849382b70e72c1bddede7102cad8109ca573e8b",
        "summary.json": "16e468edc66960c1c7c6f5c924414b44ee0a9f3c89534af148e5919be8176fc5",
        "checkpoint.json": "28c9a47ae27e404e394ac1276380736860c376c1f400f01f0f52726364d0bcb8",
    },
    "prioritized": {
        "metrics.csv": "d0b7a4d066bb1bd774d1de9a4967c049776107fe9a73e177171a767b2597eaf9",
        "batches.csv": "7d4ed9c5a3d6cc8d161c255ebada1cae2f11562b3448d1819611ae9e7dfd9ecd",
        "problems.csv": "81a9d3de17609dddbddfd136842a2d1446e2a9d1dcec85fce7fce9675f6ea894",
        "summary.json": "9495ee73cddf6db652038fa8aaff02a99247c82ce6f9f8e472e0c07a29aa72da",
        "checkpoint.json": "38d28de7a156a6ea4696b82f55f9124d588d33e7568f5890150e6660dd1644f0",
    },
    "random": {
        "metrics.csv": "5b79768d1e5eaa3526d82a2133409aaf8421586f4ca1e81e9af669ae5ff2d7b7",
        "batches.csv": "7e677f63ef2a61fcac869f5369fed0f01056d12ebc919059f9a0bb6d2690b3c6",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "eb051f179b70d42df4600623186cbb820daacae7a5d24445a7b4c9ce5a8683a8",
        "checkpoint.json": "dfcab633f817264378f30be08d32825aa5708854a64b26e651b21b0c0194a5ea",
    },
    "saved-bank": {
        "metrics.csv": "230677bc614a13e72380d67838ac66fa2d3c255bb1acd225b47d57d8ce75b951",
        "batches.csv": "18b2a44c86caf1cbe7a3751f4feb265966a360c450fa4ef283789532a3c8e305",
        "problems.csv": "4e7be58288157b8d502446d5c910689aa3e47be5a54fe8bcf06c412bd9bbafaf",
        "summary.json": "a441609758fb749b0ee8696321ced4546402160be278a22381ab21ec5b1aa4c0",
        "checkpoint.json": "cb98d067b1c808a6bdffdaf436884d1530e8ee627739a5a9b6f692a2f17e05a0",
        "bank.json": "d3f70d77feb120806e84e8f34f04fd8771a55a2734bf4c812e9c48c3c00a8750",
    },
}

# Every strategy over two seeds, written by compare_strategies.
GOLDEN_COMPARISON = {
    "comparison.csv": "3e53d7cdb8d7b0f6efee611f78654cc90c33879c60eeaae5f5af8920f0d6cc8b",
    "comparison_summary.csv": "92a1be0bb9673d345738886069c4dd88e7dede849bca040bd14f8e3d03b2c5c3",
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
        save_bank(generate_bank(150, np.random.default_rng(3)), "bank.json")
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
    bank = generate_bank(500, np.random.default_rng(7), mode=mode)
    assert bank.content_hash() == GOLDEN_BANK_HASHES[mode]
