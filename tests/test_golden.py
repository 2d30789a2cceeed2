"""Golden outputs: the exact bytes small runs write, pinned by sha256.

A change that alters output bytes on purpose updates these digests and says
so in CHANGES.md.  Checkpoints are digested without ``config.out_dir``, the
only field that names where a run was written.
"""

import hashlib
import json

import numpy as np
import pytest

from cdas.config import ExperimentConfig
from cdas.harness import (
    BATCHES_FILE,
    CHECKPOINT_FILE,
    METRICS_FILE,
    PROBLEMS_FILE,
    SUMMARY_FILE,
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
        "checkpoint.json": "bbe637789f57a50b538ce0eece40084a8c00b1ef623acf109929b919a63cfc1f",
    },
    "cdas-variant": {
        "metrics.csv": "9f3134deccd595c1f297b6f67d36ae54716f134c8cbfed639afe57ddf066c050",
        "batches.csv": "192f8e6cfd7b4ef03a68b1020db24a5eb7026f436f628cfb7d95cab1759c2f88",
        "problems.csv": "ca7115a661c4b3ccb636e0e303a6852a68f0d2da9bcaed31fbfa498c0d945f3e",
        "summary.json": "74aba81dc1427306277c14a56bf8f44a218cc2e46b7540984df50fb6be045e23",
        "checkpoint.json": "05482b1e50f8c8e169939053062ce37d9eec1b060bb41e693ea556971e5de93e",
    },
    "curriculum": {
        "metrics.csv": "2ece74a5912681632ecf0e1a4a1c619caf85dda5fa22ee1ac889e538daa7167c",
        "batches.csv": "dc59751a95d8fc91451f888b1bd1d07340b416bec2c20dfdea0d628631ef107a",
        "problems.csv": "fbc6e00def029246d75cdbb9d478981e9874dc3467e4fe90aa5648bdbca239f6",
        "summary.json": "d570df69231fc32af17f232751bacf58beff517521e72b2e94432bc7d742e0e5",
        "checkpoint.json": "df1319eaf740d35efd63c779c97f0634615df385da0e4b3224cd4c0ce09f409f",
    },
    "dynamic": {
        "metrics.csv": "09b851d2a1072c85cd7f4f7f2e677c60d6ac6993880bb5ef7414d132e823d11e",
        "batches.csv": "5b091e3f274079c53fcb3be547bf622ecab45f5d691940e8859f8968ffd75777",
        "problems.csv": "891e78615856a3704fdd70dd1dc023185e1240035d9379099996edbf7d72b765",
        "summary.json": "b77465e66ed9d5ba6be2e7ce4fef33afb27623c2eb5661c2e7baa8d935a58100",
        "checkpoint.json": "04250d2a5a4b6a21df5da324e8b0bfd1cf2323752f80decd72bbf0f329a96367",
    },
    "dynamic-capped": {
        "metrics.csv": "20be7ae66b70e3cbd6b6aea32fb1bbf6c3a8de13a90b9f8bb03433f509706676",
        "batches.csv": "70c94f9c154e1a4e958647f2ab01722ac7a5f96846c03c834b3912712c7a75e4",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "341e0a7f68cd5e7e0cb8d36ea0b151e43285c97d3967d8f656a64459ffe14fb2",
        "checkpoint.json": "795beac588856749b37a4633a958e87c395c3f5b2132adc30eb8f48dae58a2ad",
    },
    "dynamic-oversampled": {
        "metrics.csv": "420cf4f71eb3509f29fa105f421551b9f7d4dd8b7e497ca03da4a9c357463986",
        "batches.csv": "da5f4cfd08af528ee793c259c6c128fdb169b2a83bcc266d2d6c3dd1ff15f57e",
        "problems.csv": "f8b8cef049921b6765e1b5c8e7478ce5f6bf2aef81a31e381c3f29472e3d08bb",
        "summary.json": "d8620db54fd5239864437ad604bbf4c54cfb2bc8f9a878bd62ae79db8e1a3a9c",
        "checkpoint.json": "c9eb71d21f8fe59a9de4081718a7031924d4fc22a94e18e3d5cb29c2440d9a3d",
    },
    "prioritized-fallback": {
        "metrics.csv": "f4b06cd67eafd60dcc67e4fd0cff77e456b3a9d2d2a8416a05250315e7f28c2c",
        "batches.csv": "0ad770980b9aa5b9a9f4cb98304a40c05ad32a1d8d8f1ef6150c081675f7ebce",
        "problems.csv": "768d1f34bcb1a31442c6b9b9f8be075988ef1e1ecc048a5975865c18e366d271",
        "summary.json": "095347069aecc7551d86a17e47b6033d0f63614d2fcad74fb96d0e52301212c6",
        "checkpoint.json": "fe0216dda8e0b3a1061e10379c076d74f7c3ae9cdb1ac30025398474c826d663",
    },
    "prioritized-weighted": {
        "metrics.csv": "b7a745a788b2b6117f9eb416669d94b5e8121cf2007c210a4687b4edcc1c9365",
        "batches.csv": "6079deb493956a69d9e1c2ffc3b34150ecf1353785b02dfc10db310f881ed418",
        "problems.csv": "aa8579245b4d2ed6294ae07a0849382b70e72c1bddede7102cad8109ca573e8b",
        "summary.json": "168e5302b3da38cedb1c3f5f8ac20a324c20fa52f08d5c3b5e1325535cca7edf",
        "checkpoint.json": "73b66fb1dd668f51f87f8c241beab5ce864684044aef7a812a8a4d2d688e2586",
    },
    "prioritized": {
        "metrics.csv": "d0b7a4d066bb1bd774d1de9a4967c049776107fe9a73e177171a767b2597eaf9",
        "batches.csv": "7d4ed9c5a3d6cc8d161c255ebada1cae2f11562b3448d1819611ae9e7dfd9ecd",
        "problems.csv": "81a9d3de17609dddbddfd136842a2d1446e2a9d1dcec85fce7fce9675f6ea894",
        "summary.json": "be4d8e8570727acea386a3c62a7d404b251cc908c793c9103830ea680e0e401e",
        "checkpoint.json": "897192fe5fd7443ddaa17f1ad49510d82625460bc03e3f4f8762b3768d917517",
    },
    "random": {
        "metrics.csv": "5b79768d1e5eaa3526d82a2133409aaf8421586f4ca1e81e9af669ae5ff2d7b7",
        "batches.csv": "7e677f63ef2a61fcac869f5369fed0f01056d12ebc919059f9a0bb6d2690b3c6",
        "problems.csv": "c4df2457e2d98d76371bdd4f5053b0792dccf50ebf6977d65f1157b0195a1d73",
        "summary.json": "ee79d831959fadd376b6456c45e947fe17c2ddf74ee89a97d06c4a78fabf5671",
        "checkpoint.json": "49a9dec109920d8e84ff1f188d81c085bad42c9b7dcb201aacade6861403e5c3",
    },
    "saved-bank": {
        "metrics.csv": "230677bc614a13e72380d67838ac66fa2d3c255bb1acd225b47d57d8ce75b951",
        "batches.csv": "18b2a44c86caf1cbe7a3751f4feb265966a360c450fa4ef283789532a3c8e305",
        "problems.csv": "4e7be58288157b8d502446d5c910689aa3e47be5a54fe8bcf06c412bd9bbafaf",
        "summary.json": "c6bd4e30acf0dd18d0c573f9c94e7fa47e3efd1c77e7c3e9797eb43eb10a1c26",
        "checkpoint.json": "db8eb8a454fb18dc3c83923097f7037243e263b7b7d509adcad046bc77a32a6f",
        "bank.json": "9b20c54a0da43fae935a603b8c0d26157c4cd189907b398fd7865e449f20bcb8",
    },
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


@pytest.mark.parametrize("mode", ["normal", "levels"])
def test_generated_bank_hash_matches_golden(mode):
    bank = generate_bank(500, np.random.default_rng(7), mode=mode)
    assert bank.content_hash() == GOLDEN_BANK_HASHES[mode]
