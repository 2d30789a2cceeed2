"""Synthetic learner calibration and problem-bank construction."""

import hashlib
import json
import math
import re
import struct
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdas import learner
from cdas.errors import ConfigError
from cdas.learner import (
    BANK_FORMAT_VERSION,
    ProblemBank,
    SyntheticLearner,
    _quintile_tags,
    default_ability,
    generate_bank,
    load_bank,
    save_bank,
)
from cdas.sampling import CdasSampler


DATA = Path(__file__).resolve().parent / "data"


def _learner(ability, seed=0, **kwargs):
    return SyntheticLearner(ability=ability, rng=np.random.default_rng(seed), **kwargs)


class TestSuccessProbability:
    def test_ability_at_latent_difficulty_is_even_odds(self):
        assert _learner(1.3).success_probability(1.3) == 0.5

    def test_logistic_value(self):
        # sigmoid(1) to the digit.
        assert _learner(1.0).success_probability(0.0) == pytest.approx(
            0.7310585786300049, abs=1e-15
        )

    def test_discrimination_scales_the_gap(self):
        gentle = _learner(1.0, discrimination=0.5).success_probability(0.0)
        steep = _learner(1.0, discrimination=4.0).success_probability(0.0)
        assert gentle < steep

    def test_harder_problem_is_less_likely(self):
        learner = _learner(0.0)
        assert learner.success_probability(1.0) < learner.success_probability(0.0)

    def test_missing_latent_difficulty_rejected(self):
        # A bank file's null latent becomes NaN, which the bank refuses.
        with pytest.raises(ConfigError, match="latent"):
            ProblemBank(["q"], [None], [None])


class TestRollouts:
    def test_empirical_rate_matches_model(self):
        # One huge group: the empirical pass rate should sit within three
        # standard errors of sigmoid(ability - b).
        p = 1.0 / (1.0 + math.exp(-0.7))
        learner = _learner(0.2, seed=11, rollouts=10_000)
        group = learner.rollout_group("q", -0.5)
        standard_error = math.sqrt(p * (1.0 - p) / 10_000)
        assert abs(group.pass_rate - p) <= 3 * standard_error

    def test_far_below_ability_groups_all_pass(self):
        learner = _learner(10.0, seed=5)
        all_pass = sum(
            learner.rollout_group("q", 0.0).pass_rate == 1.0 for _ in range(10_000)
        )
        assert all_pass / 10_000 >= 0.999

    def test_group_size_and_id(self):
        group = _learner(0.0, rollouts=6).rollout_group("x9", 0.0)
        assert group.problem_id == "x9"
        assert len(group.rewards) == 6

    def test_same_seed_same_draws(self):
        a = _learner(0.3, seed=77).rollout_group("q", 0.1)
        b = _learner(0.3, seed=77).rollout_group("q", 0.1)
        assert a.rewards == b.rewards


class TestLearnStep:
    def test_all_useful_moves_by_full_rate(self):
        learner = _learner(1.0, learn_rate=0.05)
        learner.learn_step([False, False])
        assert learner.ability == pytest.approx(1.05, abs=1e-15)

    def test_all_zero_gradient_moves_nothing(self):
        learner = _learner(1.0)
        learner.learn_step([True, True])
        assert learner.ability == 1.0

    def test_half_useful_moves_half(self):
        learner = _learner(0.0, learn_rate=0.1)
        learner.learn_step([False, True])
        assert learner.ability == pytest.approx(0.05, abs=1e-15)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            _learner(0.0).learn_step([])

    def test_ability_never_decreases(self):
        rng = np.random.default_rng(3)
        learner = _learner(-1.0, seed=8)
        previous = learner.ability
        for _ in range(200):
            flags = [bool(rng.random() < 0.5) for _ in range(4)]
            learner.learn_step(flags)
            assert learner.ability >= previous
            previous = learner.ability


class TestLearnerConfig:
    def test_bad_discrimination(self):
        with pytest.raises(ConfigError):
            _learner(0.0, discrimination=0.0)

    def test_bad_learn_rate(self):
        with pytest.raises(ConfigError):
            _learner(0.0, learn_rate=-0.1)

    def test_bad_rollouts(self):
        with pytest.raises(ConfigError):
            _learner(0.0, rollouts=1)

    def test_pass_counts_match_per_problem_rollouts(self):
        # One (B, G) draw must give the bits, and leave the stream where, B
        # separate groups would.
        latents = np.linspace(-3, 3, 25).tolist()
        batched = _learner(0.4, seed=13, rollouts=6)
        single = _learner(0.4, seed=13, rollouts=6)
        counts = batched.pass_counts(latents)
        assert counts == [single.rollout_group("q", b).rewards.count(1.0) for b in latents]
        assert all(type(k) is int for k in counts)
        assert batched.state_dict() == single.state_dict()
        assert batched.pass_counts([]) == []
        assert batched.state_dict() == single.state_dict()

    def test_state_round_trip_resumes_stream(self):
        learner = _learner(0.4, seed=21)
        learner.rollout_group("q", 0.0)
        clone = _learner(0.0, seed=0)
        clone.load_state_dict(learner.state_dict())
        want = learner.rollout_group("q", 0.2)
        got = clone.rollout_group("q", 0.2)
        assert got.rewards == want.rewards
        assert clone.ability == learner.ability

    @pytest.mark.parametrize(
        "edit",
        [
            lambda good: 5,
            lambda good: {},
            lambda good: "state",
            lambda good: {"bit_generator": "MT19937"},
            lambda good: {"bit_generator": "PCG64"},
            # Values the bit generator would drop or truncate without a word.
            lambda good: {**good, "extra": 1},
            lambda good: {**good, "state": {**good["state"], "state": 1.5}},
            lambda good: {**good, "state": {**good["state"], "inc": -1}},
        ],
        ids=["int", "empty", "string", "other-bit-generator", "no-state", "extra-key",
             "fractional-state", "negative-inc"],
    )
    def test_malformed_rng_state_refused(self, edit):
        learner = _learner(0.4, seed=21)
        before = learner.state_dict()
        with pytest.raises(ConfigError, match="learner state: rng"):
            learner.load_state_dict({"ability": 1.5, "rng": edit(before["rng"])})
        assert learner.state_dict() == before


class TestGenerateBank:
    def test_normal_mode_quintiles_are_balanced(self):
        bank = generate_bank(100, np.random.default_rng(0))
        tags = np.array(bank.level_tags)
        counts = np.bincount(tags, minlength=6)[1:]
        assert list(counts) == [20] * 5

    def test_normal_mode_tags_sort_with_latents(self):
        bank = generate_bank(50, np.random.default_rng(1))
        tags = [tag for _, tag in sorted(zip(bank.latent.tolist(), bank.level_tags))]
        assert tags == sorted(tags)

    def test_levels_mode_latents_are_equally_spaced(self):
        bank = generate_bank(200, np.random.default_rng(2), mode="levels", level_spread=2.0)
        for tag, latent in zip(bank.level_tags, bank.latent.tolist()):
            assert latent == (tag - 3) * 1.0
        assert set(bank.level_tags) == {1, 2, 3, 4, 5}

    def test_ids_are_zero_padded_and_unique(self):
        bank = generate_bank(12, np.random.default_rng(3))
        assert bank.ids[0] == "p00000"
        assert bank.ids[-1] == "p00011"
        assert len(set(bank.ids)) == 12
        # Past 100k problems the padding widens with the largest index.
        wide = generate_bank(100_001, np.random.default_rng(3))
        assert (wide.ids[0], wide.ids[-1]) == ("p000000", "p100000")

    @pytest.mark.parametrize("n", [1, 9, 10, 12, 100_001])
    def test_ids_match_the_percent_format(self, n):
        width = max(5, len(str(n - 1)))
        bank = generate_bank(n, np.random.default_rng(3))
        assert bank.ids == tuple(f"p%0{width}d" % i for i in range(n))

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.one_of(
            st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=1, max_size=300),
            st.lists(st.floats(-1e9, 1e9, allow_nan=False), min_size=1, max_size=300),
        )
    )
    def test_quintile_tags_match_a_stable_argsort(self, values):
        # Includes n < 5, where some quintiles are empty, and runs of ties.
        values = np.array(values)
        n = values.size
        expected = np.empty(n, dtype=int)
        expected[np.argsort(values, kind="stable")] = 1 + (np.arange(n) * 5) // n
        assert _quintile_tags(values).tolist() == expected.tolist()

    def test_reproducible_and_seed_sensitive(self):
        one = generate_bank(40, np.random.default_rng(9))
        two = generate_bank(40, np.random.default_rng(9))
        other = generate_bank(40, np.random.default_rng(10))
        assert one.content_hash() == two.content_hash()
        assert one.content_hash() != other.content_hash()

    def test_records_start_unscheduled(self):
        # The bank holds no scheduler state; a CDAS sampler on it starts every
        # problem at t = 0 with the configured initial difficulty.
        bank = generate_bank(5, np.random.default_rng(4))
        sampler = CdasSampler(bank, 2, np.random.default_rng(0), initial_difficulty=0.25)
        assert all(record.t == 0 for record in sampler.records.values())
        assert all(record.difficulty == 0.25 for record in sampler.records.values())

    def test_columns_line_up_in_bank_order(self):
        bank = generate_bank(5, np.random.default_rng(4))
        assert type(bank.ids) is tuple and type(bank.level_tags) is tuple
        assert bank.latent.dtype == np.float64 and not bank.latent.flags.writeable
        assert len(bank.ids) == len(bank.level_tags) == bank.latent.size == 5
        assert bank.index == {pid: i for i, pid in enumerate(bank.ids)}

    def test_bad_sizes_and_modes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError):
            generate_bank(0, rng)
        with pytest.raises(ConfigError):
            generate_bank(5, rng, scale=0.0)
        with pytest.raises(ConfigError):
            generate_bank(5, rng, mode="levels", level_spread=-1.0)
        with pytest.raises(ConfigError):
            generate_bank(5, rng, mode="mystery")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_and_spread_refused_before_drawing(self, value):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ConfigError, match="bank_scale: must be finite and > 0"):
            generate_bank(5, rng, scale=value)
        with pytest.raises(ConfigError, match="bank_level_spread: must be finite and > 0"):
            generate_bank(5, rng, mode="levels", level_spread=value)
        assert rng.bit_generator.state == before


class TestBankContainer:
    def test_lookup_and_len(self):
        bank = generate_bank(7, np.random.default_rng(6))
        assert len(bank) == 7
        assert bank.ids[bank.index["p00003"]] == "p00003"

    def test_index_is_built_on_first_use(self):
        bank = generate_bank(7, np.random.default_rng(6))
        assert "index" not in vars(bank)
        assert bank.index["p00003"] == 3
        assert bank.index is bank.index

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError, match="duplicate problem id dup"):
            ProblemBank(["a", "dup", "dup"], [None] * 3, [0.0] * 3)

    def test_missing_latent_rejected(self):
        with pytest.raises(ConfigError, match="bank problem b"):
            ProblemBank(["a", "b"], [None, None], [0.0, float("nan")])

    def test_empty_bank_rejected(self):
        with pytest.raises(ConfigError, match="at least one problem"):
            ProblemBank([], [], [])

    def test_columns_of_different_lengths_rejected(self):
        with pytest.raises(ConfigError, match="columns"):
            ProblemBank(["a", "b"], [1], [0.0, 0.0])
        with pytest.raises(ConfigError, match="columns"):
            ProblemBank(["a"], [1], [0.0, 0.0])

    def test_level_tags_outside_one_to_five_rejected(self):
        # A tag is written as its digit, so one that only equals a level
        # (True, 1.0) is refused as well.
        for tag in (0, 6, True, 1.0, "1"):
            with pytest.raises(ConfigError, match="level_tag"):
                ProblemBank(["a", "b"], [1, tag], [0.0, 0.0])

    @pytest.mark.parametrize(
        "bad", [0, None, b"ab", "", "a,b", "a;b", 'a"b', "a\rb", "a\nb", "\n", "a\ud800"]
    )
    def test_malformed_ids_rejected(self, bad):
        with pytest.raises(ConfigError, match=r"problem id: .* got " + re.escape(repr(bad))):
            ProblemBank(["ok", bad], [None, None], [0.0, 0.0])

    def test_first_malformed_id_is_named_mid_column(self):
        with pytest.raises(ConfigError, match=r"problem id: .* got 5$"):
            ProblemBank(["a", 5, "b"], [None] * 3, [0.0] * 3)

    def test_hash_ignores_scheduler_state(self):
        bank = generate_bank(8, np.random.default_rng(5))
        before = bank.content_hash()
        sampler = CdasSampler(bank, 4, np.random.default_rng(0))
        for _ in range(3):
            batch = sampler.select_batch(4)
            sampler.report([0.25] * len(batch))
        assert bank.content_hash() == before

    @pytest.mark.parametrize("mode", ["x", ["x"], None])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ConfigError, match=re.escape("bank_mode: must be one of")):
            ProblemBank(["a"], [None], [0.0], mode=mode)

    def test_hash_known_answer(self):
        # The count and a newline, each id and a newline, a byte per tag,
        # then each latent as little-endian float64.
        expected = hashlib.sha256(b"1\na\n\x02" + struct.pack("<d", 0.5)).hexdigest()
        assert ProblemBank(["a"], [2], [0.5]).content_hash() == expected

    @pytest.mark.parametrize(
        "one, other",
        [
            ((["ab", "c"], [1, 1], [0.0, 0.0]), (["a", "bc"], [1, 1], [0.0, 0.0])),
            *(((["a"], [None], [0.5]), (["a"], [tag], [0.5])) for tag in range(1, 6)),
            ((["a"], [2], [-0.0]), (["a"], [2], [0.0])),
            ((["a", "b"], [1, 2], [0.5, 1.5]), (["b", "a"], [2, 1], [1.5, 0.5])),
            ((["a"], [2], [0.5]), (["b"], [2], [0.5])),
            ((["a"], [2], [0.5]), (["a"], [2], [0.25])),
        ],
        ids=[
            "id-split", *(f"untagged-vs-{tag}" for tag in range(1, 6)),
            "zero-sign", "swap", "id", "latent",
        ],
    )
    def test_hash_separates(self, one, other):
        assert ProblemBank(*one).content_hash() != ProblemBank(*other).content_hash()

    def test_hash_is_computed_once(self, tmp_path, monkeypatch):
        bank = generate_bank(20, np.random.default_rng(5))
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        loaded = load_bank(path)

        def refuse(*args):
            raise AssertionError("the bank was hashed again")

        monkeypatch.setattr(learner, "hashlib", types.SimpleNamespace(sha256=refuse))
        assert loaded.content_hash() == bank.content_hash()

    def test_default_ability_is_fifth_percentile(self):
        bank = generate_bank(500, np.random.default_rng(12))
        expected = float(np.percentile(bank.latent, 5.0))
        assert default_ability(bank) == expected


class TestBankFiles:
    def test_round_trip(self, tmp_path):
        bank = generate_bank(30, np.random.default_rng(14), mode="levels")
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        loaded = load_bank(path)
        assert loaded.content_hash() == bank.content_hash()
        assert loaded.mode == "levels"
        assert loaded.ids == bank.ids

    def test_tampered_file_rejected(self, tmp_path):
        bank = generate_bank(10, np.random.default_rng(15))
        path = tmp_path / "bank.json"
        save_bank(bank, path)
        latent = bank.latent[0].item()
        text = path.read_text().replace(repr(latent), repr(latent + 1.0), 1)
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_bank(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "bank.json"
        path.write_text('{"format_version": 99, "records": []}')
        with pytest.raises(ConfigError):
            load_bank(path)

    def test_version_1_file_refused_by_its_version(self, tmp_path):
        # Written by save_bank when the hash was taken over repr text lines.
        old = DATA / "bank_format1.json"
        with pytest.raises(ConfigError, match="unsupported format_version 1"):
            load_bank(old)
        # Read as the current version, only its stored hash gives it away.
        path = tmp_path / "bank.json"
        current = {**json.loads(old.read_text()), "format_version": BANK_FORMAT_VERSION}
        path.write_text(json.dumps(current))
        with pytest.raises(ConfigError, match="content hash mismatch"):
            load_bank(path)

    @pytest.mark.parametrize("field", ["id", "level_tag", "true_difficulty"])
    def test_record_missing_a_field_rejected(self, tmp_path, field):
        record = {"id": "p0", "level_tag": 3, "true_difficulty": 0.5}
        del record[field]
        path = tmp_path / "bank.json"
        path.write_text(json.dumps({"format_version": BANK_FORMAT_VERSION, "records": [record]}))
        with pytest.raises(ConfigError, match=f"record 0 has no '{field}'"):
            load_bank(path)

    @pytest.mark.parametrize(
        "records",
        [
            None,
            ["p0"],
            [{"id": "p0", "level_tag": 3, "true_difficulty": "hard"}],
            [{"id": "p0", "level_tag": 3, "true_difficulty": "0.5"}],
            [{"id": "p0", "level_tag": 3, "true_difficulty": True}],
            [{"id": "p0", "level_tag": 3, "true_difficulty": 10**400}],
            [{"id": 0, "level_tag": 3, "true_difficulty": 0.5}],
            [{"id": "p;0", "level_tag": 3, "true_difficulty": 0.5}],
            [{"id": ["p0"], "level_tag": 3, "true_difficulty": 0.5}],
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, records):
        path = tmp_path / "bank.json"
        path.write_text(json.dumps({"format_version": BANK_FORMAT_VERSION, "records": records}))
        with pytest.raises(ConfigError, match="bank file"):
            load_bank(path)
