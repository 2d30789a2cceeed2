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
        "summary.json": "0a7e2731d494f21c8a012b4b4e229190f73d0bc2d710bbd6b19cf73569ae5c89",
        "checkpoint.json": "72419dff28329911271ef734168a983a98f2a09b1f85a6496b241bc3e7d4def1",
    },
    "cdas-variant": {
        "metrics.csv": "9f3134deccd595c1f297b6f67d36ae54716f134c8cbfed639afe57ddf066c050",
        "batches.csv": "192f8e6cfd7b4ef03a68b1020db24a5eb7026f436f628cfb7d95cab1759c2f88",
        "problems.csv": "ca7115a661c4b3ccb636e0e303a6852a68f0d2da9bcaed31fbfa498c0d945f3e",
        "summary.json": "74aba81dc1427306277c14a56bf8f44a218cc2e46b7540984df50fb6be045e23",
        "checkpoint.json": "276456c6dcad972a19fccdaf1bc0768b276a1195a4928f7054655f08585a8989",
    },
    "curriculum": {
        "metrics.csv": "2ece74a5912681632ecf0e1a4a1c619caf85dda5fa22ee1ac889e538daa7167c",
        "batches.csv": "dc59751a95d8fc91451f888b1bd1d07340b416bec2c20dfdea0d628631ef107a",
        "problems.csv": "fbc6e00def029246d75cdbb9d478981e9874dc3467e4fe90aa5648bdbca239f6",
        "summary.json": "d570df69231fc32af17f232751bacf58beff517521e72b2e94432bc7d742e0e5",
        "checkpoint.json": "d2848dc2f535ce665dd292b4db177563cb87c48ec48b7b74abef372346470a9d",
    },
    "dynamic": {
        "metrics.csv": "a6c5bc9df3d30dde4fda32967ab2160bacc68b533f367e696058a73b80380370",
        "batches.csv": "40e31e5ec4f4727a9fa6e4f9602ddbe2b757413527d3f943978dbc1f7381aa0c",
        "problems.csv": "0893ec40326a04566d3dbb5591c3437648e08b9e3c42f644ca67a73e79b9d309",
        "summary.json": "2e907d2a6d09f290b85d201d97a43c1d91c7ae02c05aba41dacd7b1fb08a3391",
        "checkpoint.json": "9217fcd05a0a612d6c694464f0d18cefb9f500af2c18b61a54e9bf5620fb42ca",
    },
    "dynamic-capped": {
        "metrics.csv": "20be7ae66b70e3cbd6b6aea32fb1bbf6c3a8de13a90b9f8bb03433f509706676",
        "batches.csv": "70c94f9c154e1a4e958647f2ab01722ac7a5f96846c03c834b3912712c7a75e4",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "341e0a7f68cd5e7e0cb8d36ea0b151e43285c97d3967d8f656a64459ffe14fb2",
        "checkpoint.json": "54f6292c86c4a15905642ee9bc222fa264153bd729e0c9e4bc5a4322cfa2ac4b",
    },
    "dynamic-oversampled": {
        "metrics.csv": "6f911b236774e27d90425610f7eb82fbe2583ececb70ac4503689fd641d39e8a",
        "batches.csv": "9224098cd542b5df40a853071e50c3863faf40799b62e45231e2aec90ff607b9",
        "problems.csv": "4c0af95b0db74de5f6da7e282af311ab9459e52f1eb9dc95777e6e1a2adcbd99",
        "summary.json": "863a39b6dc31df822a88034c0b49a628ac1a409c503e3f1b40ae061ad772eae2",
        "checkpoint.json": "1c306314dfdf6c2e3d957d288e30a69d6a1e12ca65e6916ebf478f79eb61fcd9",
    },
    "prioritized-fallback": {
        "metrics.csv": "f4b06cd67eafd60dcc67e4fd0cff77e456b3a9d2d2a8416a05250315e7f28c2c",
        "batches.csv": "0ad770980b9aa5b9a9f4cb98304a40c05ad32a1d8d8f1ef6150c081675f7ebce",
        "problems.csv": "768d1f34bcb1a31442c6b9b9f8be075988ef1e1ecc048a5975865c18e366d271",
        "summary.json": "095347069aecc7551d86a17e47b6033d0f63614d2fcad74fb96d0e52301212c6",
        "checkpoint.json": "7ae4f9d3b083051499419bfc84f61ec071ad163b7f1767916c666d7fd4845c01",
    },
    "prioritized-weighted": {
        "metrics.csv": "b7a745a788b2b6117f9eb416669d94b5e8121cf2007c210a4687b4edcc1c9365",
        "batches.csv": "6079deb493956a69d9e1c2ffc3b34150ecf1353785b02dfc10db310f881ed418",
        "problems.csv": "aa8579245b4d2ed6294ae07a0849382b70e72c1bddede7102cad8109ca573e8b",
        "summary.json": "168e5302b3da38cedb1c3f5f8ac20a324c20fa52f08d5c3b5e1325535cca7edf",
        "checkpoint.json": "35e0d86e5ed550c2c4eda2c8ae3a6899ff9efca8c693fcd0db5801367fd1b06c",
    },
    "prioritized": {
        "metrics.csv": "d0b7a4d066bb1bd774d1de9a4967c049776107fe9a73e177171a767b2597eaf9",
        "batches.csv": "7d4ed9c5a3d6cc8d161c255ebada1cae2f11562b3448d1819611ae9e7dfd9ecd",
        "problems.csv": "81a9d3de17609dddbddfd136842a2d1446e2a9d1dcec85fce7fce9675f6ea894",
        "summary.json": "be4d8e8570727acea386a3c62a7d404b251cc908c793c9103830ea680e0e401e",
        "checkpoint.json": "8b5fb57521aa9942f99d79df123b795624b0db9452544d5512047e3cc8aa11f2",
    },
    "random": {
        "metrics.csv": "5b79768d1e5eaa3526d82a2133409aaf8421586f4ca1e81e9af669ae5ff2d7b7",
        "batches.csv": "7e677f63ef2a61fcac869f5369fed0f01056d12ebc919059f9a0bb6d2690b3c6",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "ee79d831959fadd376b6456c45e947fe17c2ddf74ee89a97d06c4a78fabf5671",
        "checkpoint.json": "d4d1915840b571943afd7c64466105419a19c9c838a795673d4f7a35fb481efb",
    },
    "saved-bank": {
        "metrics.csv": "230677bc614a13e72380d67838ac66fa2d3c255bb1acd225b47d57d8ce75b951",
        "batches.csv": "18b2a44c86caf1cbe7a3751f4feb265966a360c450fa4ef283789532a3c8e305",
        "problems.csv": "4e7be58288157b8d502446d5c910689aa3e47be5a54fe8bcf06c412bd9bbafaf",
        "summary.json": "c6bd4e30acf0dd18d0c573f9c94e7fa47e3efd1c77e7c3e9797eb43eb10a1c26",
        "checkpoint.json": "87e00cebe78141bceddadc76d1994ce79391d0c799c0730616f87c447ea9739b",
        "bank.json": "9b20c54a0da43fae935a603b8c0d26157c4cd189907b398fd7865e449f20bcb8",
    },
}

# Every strategy over two seeds, written by compare_strategies.
GOLDEN_COMPARISON = {
    "comparison.csv": "3e53d7cdb8d7b0f6efee611f78654cc90c33879c60eeaae5f5af8920f0d6cc8b",
    "comparison_summary.csv": "76d0434d2030102ec52e1f8aa578391f0970cc1662c70023126270a0a7c4f283",
}

GOLDEN_BANK_HASHES = {
    "normal": "b206341963232c2b14788d04e96c198688cb314319b3f14058c95a45d7161521",
    "levels": "304b233f268dcda273dac3576a7c7eb0777b14887a68d7c7841c03359242bdfa",
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
